//! `scale_churn`: a `MedeaScheduler` on a census-shaped cluster, sharded
//! by service unit, driven round by round through its public API —
//! `submit_lra` → `propose_all` → `commit` — with releases
//! (`complete_lra`), lifecycle spec changes, node loss, checkpoints and
//! resource-manager restarts between rounds.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use medea_cluster::{
    ApplicationId, ClusterSnapshot, ClusterState, ContainerRequest, ExecutionKind, NodeGroupId,
    NodeId, Resources, ShardConfig, Tag,
};
use medea_constraints::PlacementConstraint;
use medea_core::{
    AppSpec, HeuristicScheduler, LifecyclePhase, LraAlgorithm, LraRequest, MedeaScheduler, Ordering,
};
use medea_journal::{MemoryStorage, Wal};
use medea_obs::{Histogram, MetricsRegistry};
use medea_rand::rngs::StdRng;
use medea_rand::{RngExt, SeedableRng};

use crate::common::*;

const NODES: usize = 2000;
/// Two service units (200 nodes) per shard: shards then hold whole racks
/// of 40, so rack-affine apps solve inside one shard. With one unit per
/// shard, racks straddle shard edges and those apps fall to the
/// full-cluster residual solve (~6 s rounds instead of ~1 s).
const SHARDS: usize = 10;
/// One HBase, one TensorFlow and one Storm per round.
const LRAS_PER_ROUND: usize = 3;
/// Rounds a placed LRA is held before `complete_lra` releases it. The
/// first `HOLD_ROUNDS` rounds fill the cluster to its stationary
/// occupancy and are not sampled.
const HOLD_ROUNDS: u64 = 8;
const CHECKPOINT_EVERY: u64 = 4;
/// Lifecycle-managed apps registered at set-up, and their replicas.
const MANAGED_APPS: usize = 4;
const MANAGED_REPLICAS: usize = 6;
/// Cadence of `set_replicas` / `set_version` changes in rounds.
const LIFECYCLE_EVERY: u64 = 3;
/// Cadence of `node_lost` events in rounds; the node returns two rounds
/// later.
const NODE_LOSS_EVERY: u64 = 4;
/// Cadence of `restart` from the journal in rounds.
const RESTART_EVERY: u64 = 6;
/// Submission → commit latency limit for `place_ok_frac`.
const LATENCY_LIMIT_MS: f64 = 10_000.0;
/// Scheduler tick interval; round `r` runs at tick `r × INTERVAL`.
const INTERVAL: u64 = 10;
/// A run times one extra set-up every this many measured rounds (besides
/// the run's own and the replay's), so that the set-up median spans the
/// run.
const SETUP_EVERY: u64 = 3;

/// Measured rounds whose placement inputs a traced run analyses.
const ANALYSED_ROUNDS: usize = 2;

/// A round's snapshot, batch and deployed constraints.
struct AnalysisInput {
    round: u64,
    snap: ClusterSnapshot,
    batch: Vec<LraRequest>,
    deployed: Vec<PlacementConstraint>,
}

/// Largest share of a round's wall time the layer spans may leave
/// unaccounted (benchmark bookkeeping between the calls).
pub const ACCOUNTING_TOLERANCE: f64 = 0.02;

/// A scheduler under test plus everything the benchmark records about it.
struct Engine {
    seed: u64,
    m: MedeaScheduler,
    registry: Arc<MetricsRegistry>,
    /// The scheduler's own timings: `core.place_us` (each solve, inside
    /// `propose_all`) and `core.cycle_time_us` (solve plus commit).
    place_us: Arc<Histogram>,
    cycle_us: Arc<Histogram>,
    rng: StdRng,
    mix: LraMix,
    round: u64,
    /// Submission time of each LRA not yet placed or dropped, and
    /// whether it was submitted in a measured round.
    submitted_at: HashMap<u64, (Instant, bool)>,
    release_at: BTreeMap<u64, Vec<u64>>,
    managed: Vec<u64>,
    digest: Digest,
    /// Digest after the warm-up rounds, which the same-seed replay
    /// repeats.
    prefix_digest: Option<u64>,
    tracer: Tracer,
    /// Host-speed probes, one before each round.
    speed: HostSpeed,
    /// End-to-end samples, raw, with the instant each was taken at.
    round_ms: Vec<(f64, Instant)>,
    place_ms: Vec<(f64, Instant)>,
    /// Set-up samples (s): the engine's own, then one every
    /// `SETUP_EVERY` measured rounds.
    setups: Vec<(f64, Instant)>,
    containers: u64,
    /// LRAs submitted in measured rounds, and how many of them were
    /// placed; those still pending at the end count as not placed.
    lras_submitted: u64,
    lras_placed: u64,
    // Per-layer samples (one per round unless noted).
    propose_ms: Vec<f64>,
    commit_ms: Vec<f64>,
    solve_sum_ms: Vec<f64>,
    shard_max_ms: Vec<f64>,
    overhead_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    snapshot_ms: Vec<f64>,
    proposed_lras: u64,
    journal_appends: Vec<f64>,
    node_lost_us: Vec<f64>,
    recovery_ms: Vec<f64>,
    rounds_to_replace: Vec<f64>,
    failover_ms: Vec<f64>,
    restore_ms: Vec<f64>,
    rounds_to_steady: Vec<f64>,
    nc_place_ms: Vec<f64>,
    checks_per_container: Vec<f64>,
    check_ns: Vec<f64>,
    accounting_gap: Vec<f64>,
    /// Open node-loss episode: (round, wall start).
    recovering: Option<(u64, Instant)>,
    lost_node: Option<(NodeId, u64)>,
    failing_over: Option<Instant>,
    steadying: Vec<(u64, u64)>,
    /// Index update operations and journal bytes of the measured rounds'
    /// placement path (propose, commits, checkpoint).
    index_ops: u64,
    journal_bytes: u64,
    /// Traced runs: placement inputs of the first measured rounds.
    analysis: Vec<AnalysisInput>,
    measured_rounds: u64,
    failed: u64,
    errors: Vec<String>,
}

/// Contiguous equal partition of `n` nodes into `parts` sets.
pub fn partition(n: usize, parts: usize) -> Vec<Vec<NodeId>> {
    let parts = parts.max(1);
    let mut sets: Vec<Vec<NodeId>> = vec![Vec::new(); parts];
    for i in 0..n {
        sets[i * parts / n.max(1)].push(NodeId(i as u32));
    }
    sets
}

/// Distinct background service tags.
pub const SERVICE_TAGS: u32 = 50;

/// Census-shaped cluster (§2.3): 16 GB / 16-core nodes, ~40-node racks,
/// ~100-node service units, ten upgrade domains, and half the nodes'
/// worth of background 4-container services (`svc0..svc49`) placed at
/// seeded random nodes. Returns the state and the soft node-level
/// anti-affinity the even services carry.
pub fn census_cluster(n: usize, seed: u64) -> (ClusterState, Vec<PlacementConstraint>) {
    let mut state = ClusterState::homogeneous(n, Resources::new(16 * 1024, 16), (n / 40).max(1));
    state.register_group(NodeGroupId::service_unit(), partition(n, (n / 100).max(1)));
    state.register_group(NodeGroupId::upgrade_domain(), partition(n, 10));
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0DE);
    let mut placed = 0usize;
    let mut app = 1_000_000u64;
    while placed < n / 2 {
        let svc = rng.random_range(0..SERVICE_TAGS);
        let req = ContainerRequest::new(Resources::new(2048, 1), [Tag::new(format!("svc{svc}"))]);
        for _ in 0..4 {
            loop {
                let node = NodeId(rng.random_range(0..n as u32));
                if state
                    .allocate(ApplicationId(app), node, &req, ExecutionKind::LongRunning)
                    .is_ok()
                {
                    break;
                }
            }
            placed += 1;
        }
        app += 1;
    }
    let deployed = (0..SERVICE_TAGS)
        .step_by(2)
        .map(|k| {
            let t = Tag::new(format!("svc{k}"));
            PlacementConstraint::anti_affinity(t.clone(), t, NodeGroupId::node())
        })
        .collect();
    (state, deployed)
}

/// Builds the scheduler a run measures; returns it with its set-up time.
fn build(seed: u64) -> (MedeaScheduler, Arc<MetricsRegistry>, Duration) {
    let t = Instant::now();
    let registry = MetricsRegistry::new();
    let (state, deployed) = census_cluster(NODES, seed);
    let mut m = MedeaScheduler::new(state, LraAlgorithm::NodeCandidates, INTERVAL)
        .with_metrics(Arc::clone(&registry));
    m.set_sharding(ShardConfig::with_shards(SHARDS));
    for c in deployed {
        m.constraint_manager()
            .register_operator(c, m.state().groups())
            .expect("background constraint is valid");
    }
    m.attach_journal(Wal::new(MemoryStorage::new()), 0)
        .expect("memory journal attaches");
    (m, registry, t.elapsed())
}

impl Engine {
    fn new(seed: u64, traced: bool) -> Self {
        let at = Instant::now();
        let (mut m, registry, setup) = build(seed);
        let mut managed = Vec::new();
        for i in 0..MANAGED_APPS {
            let app = 500_000 + i as u64;
            let tag = Tag::new(format!("web{i}"));
            let template = ContainerRequest::new(Resources::new(1024, 1), [tag.clone()]);
            let spread = PlacementConstraint::anti_affinity(tag.clone(), tag, NodeGroupId::node());
            m.submit_managed_lra(
                ApplicationId(app),
                template,
                vec![spread],
                AppSpec {
                    replicas: MANAGED_REPLICAS,
                    version: 1,
                    disruption_budget: 2,
                },
            )
            .expect("managed app registers");
            managed.push(app);
        }
        Engine {
            seed,
            place_us: registry.histogram("core.place_us"),
            cycle_us: registry.histogram("core.cycle_time_us"),
            m,
            registry,
            rng: StdRng::seed_from_u64(seed ^ 0x9E37_79B9),
            mix: LraMix::new(seed, LRAS_PER_ROUND),
            round: 0,
            submitted_at: HashMap::new(),
            release_at: BTreeMap::new(),
            managed,
            digest: Digest::new(),
            prefix_digest: None,
            tracer: Tracer::new(traced),
            speed: HostSpeed::default(),
            round_ms: Vec::new(),
            place_ms: Vec::new(),
            setups: vec![(setup.as_secs_f64(), at)],
            containers: 0,
            lras_submitted: 0,
            lras_placed: 0,
            propose_ms: Vec::new(),
            commit_ms: Vec::new(),
            solve_sum_ms: Vec::new(),
            shard_max_ms: Vec::new(),
            overhead_ms: Vec::new(),
            checkpoint_ms: Vec::new(),
            snapshot_ms: Vec::new(),
            proposed_lras: 0,
            journal_appends: Vec::new(),
            node_lost_us: Vec::new(),
            recovery_ms: Vec::new(),
            rounds_to_replace: Vec::new(),
            failover_ms: Vec::new(),
            restore_ms: Vec::new(),
            rounds_to_steady: Vec::new(),
            nc_place_ms: Vec::new(),
            checks_per_container: Vec::new(),
            check_ns: Vec::new(),
            accounting_gap: Vec::new(),
            recovering: None,
            lost_node: None,
            failing_over: None,
            steadying: Vec::new(),
            index_ops: 0,
            journal_bytes: 0,
            analysis: Vec::new(),
            measured_rounds: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// Everything that happens between rounds: releases, submissions,
    /// lifecycle changes, node loss/recovery and restarts.
    fn between_rounds(&mut self, now: u64, measured: bool) -> Vec<LraRequest> {
        let r = self.round;
        if let Some(apps) = self.release_at.remove(&r) {
            for app in apps {
                self.m.complete_lra(ApplicationId(app));
            }
        }
        let batch = self.mix.next_batch();
        for req in &batch {
            let app = req.app.0;
            match self.m.submit_lra(req.clone(), now) {
                Ok(()) => {
                    self.submitted_at.insert(app, (Instant::now(), measured));
                    if measured {
                        self.lras_submitted += 1;
                    }
                }
                Err(e) => self.fail(format!("submit_lra({app}): {e}")),
            }
        }
        if r > 0 && r.is_multiple_of(LIFECYCLE_EVERY) {
            let k = (r / LIFECYCLE_EVERY) as usize;
            let app = self.managed[k % self.managed.len()];
            let ok = match self.m.app_lifecycle(ApplicationId(app)) {
                Some(lc) if k.is_multiple_of(2) => {
                    let delta = if lc.spec.replicas > MANAGED_REPLICAS {
                        0
                    } else {
                        2
                    };
                    self.m
                        .set_replicas(ApplicationId(app), MANAGED_REPLICAS + delta)
                }
                Some(lc) => self.m.set_version(ApplicationId(app), lc.spec.version + 1),
                None => false,
            };
            if ok {
                self.steadying.push((app, r));
            } else {
                self.fail(format!("lifecycle change on app {app} refused"));
            }
        }
        if let Some((node, at)) = self.lost_node {
            if r >= at + 2 {
                self.m.node_recovered(node);
                self.lost_node = None;
            }
        }
        if r % NODE_LOSS_EVERY == NODE_LOSS_EVERY / 2
            && self.lost_node.is_none()
            && self.recovering.is_none()
        {
            // A node hosting at least one benchmark LRA container.
            let hosts: Vec<NodeId> = self
                .m
                .state()
                .node_ids()
                .filter(|&n| {
                    self.m.state().is_available(n)
                        && self.m.state().containers_on(n).is_ok_and(|cs| {
                            cs.iter().any(|&c| {
                                self.m
                                    .state()
                                    .allocation(c)
                                    .is_ok_and(|a| a.app.0 < 1_000_000)
                            })
                        })
                })
                .collect();
            if let Some(&node) = self.rng.choose(&hosts) {
                let t = Instant::now();
                let rep = self.m.node_lost(node, now);
                let t1 = Instant::now();
                self.tracer.record("recovery.node_lost", None, r, t, t1);
                self.node_lost_us.push((t1 - t).as_secs_f64() * 1e6);
                self.digest.add(u64::from(node.0));
                self.digest.add(rep.lra_containers_lost as u64);
                self.lost_node = Some((node, r));
                if rep.lra_containers_lost > 0 {
                    self.recovering = Some((r, t));
                }
            }
        }
        if r % RESTART_EVERY == RESTART_EVERY - 1 {
            let reports = node_reports(&self.m);
            let t = Instant::now();
            let res = self.m.restart(now, &reports);
            let t1 = Instant::now();
            self.tracer.record("journal.restart", None, r, t, t1);
            match res {
                Ok(rep) => {
                    if let Some(e) = rep.audit_error {
                        self.fail(format!("restart audit: {e}"));
                    }
                    self.digest.add(rep.replayed_ops as u64);
                    self.restore_ms.push(ms(t1 - t));
                    self.failing_over = Some(t);
                }
                Err(e) => self.fail(format!("restart: {e}")),
            }
        }
        batch
    }

    /// The inputs of a round's placement, kept for the layer analysis.
    fn analysis_input(&self, snap: ClusterSnapshot, batch: Vec<LraRequest>) -> AnalysisInput {
        let batch_apps: Vec<ApplicationId> = batch.iter().map(|b| b.app).collect();
        let deployed: Vec<PlacementConstraint> = self
            .m
            .constraint_manager()
            .active_shared()
            .iter()
            .filter(|s| match s.source {
                medea_constraints::ConstraintSource::Application(a) => !batch_apps.contains(&a),
                medea_constraints::ConstraintSource::Operator => true,
            })
            .map(|s| s.constraint.clone())
            .collect();
        AnalysisInput {
            round: self.round,
            snap,
            batch,
            deployed,
        }
    }

    /// Traced runs, after the rounds: the saved snapshots and batches of
    /// the first measured rounds through the NodeCandidates heuristic and
    /// one candidate pass of the constraint layer. Run after the rounds,
    /// so that their allocations do not slow the rounds that follow.
    fn analyse(&mut self) {
        for a in std::mem::take(&mut self.analysis) {
            let t = Instant::now();
            let out = HeuristicScheduler::new(Ordering::NodeCandidates).place(
                a.snap.state(),
                &a.batch,
                &a.deployed,
            );
            let t1 = Instant::now();
            std::hint::black_box(out);
            self.tracer
                .record("heuristics.nc_place", None, a.round, t, t1);
            self.nc_place_ms.push(ms(t1 - t));
            let t = Instant::now();
            let (per_container, ns) = candidate_pass(a.snap.state(), &a.batch, &a.deployed);
            self.tracer.record(
                "constraints.candidate_pass",
                None,
                a.round,
                t,
                Instant::now(),
            );
            self.checks_per_container.push(per_container);
            self.check_ns.push(ns);
        }
    }

    /// One round: propose every shard's solve, commit each, checkpoint
    /// on cadence.
    fn round(&mut self) {
        let now = self.round * INTERVAL;
        let r = self.round;
        let measured = r >= HOLD_ROUNDS;
        // Untimed: the host-speed probe and, on cadence, an extra set-up.
        self.speed.probe();
        if measured && r.is_multiple_of(SETUP_EVERY) {
            let at = Instant::now();
            let (extra, _, setup) = build(self.seed);
            drop(extra);
            self.setups.push((setup.as_secs_f64(), at));
        }
        let batch = self.between_rounds(now, measured);
        if self.tracer.on && measured {
            let t = Instant::now();
            let snap = self.m.state().snapshot();
            let t1 = Instant::now();
            self.tracer.record("cluster.snapshot", None, r, t, t1);
            self.snapshot_ms.push(ms(t1 - t));
            if self.analysis.len() < ANALYSED_ROUNDS {
                let input = self.analysis_input(snap, batch);
                self.analysis.push(input);
            }
        }

        let appends0 = self.m.journal_stats().records_appended;
        let bytes0 = self.m.journal_stats().bytes_appended;
        let index_ops0 = self.m.state().index_stats().update_ops;
        let (place0, cycle0) = (self.place_us.sum(), self.cycle_us.sum());
        let t_round = Instant::now();
        let solves = self.m.propose_all(now);
        let t_prop = Instant::now();
        let mut solve_sum = Duration::ZERO;
        let mut shard_max = Duration::ZERO;
        let mut solve_times = Vec::with_capacity(solves.len());
        for s in &solves {
            let a = s.algorithm_time();
            solve_sum += a;
            shard_max = shard_max.max(a);
            self.proposed_lras += s.lras() as u64;
            solve_times.push(a);
        }
        let n_solves = solves.len() as u64;
        let mut commit = Duration::ZERO;
        let mut commit_spans = Vec::new();
        let mut deployed = Vec::new();
        for s in solves {
            let t = Instant::now();
            deployed.extend(self.m.commit(now, s));
            let t1 = Instant::now();
            commit += t1 - t;
            commit_spans.push((t, t1));
        }
        let mut ckpt = None;
        if r.is_multiple_of(CHECKPOINT_EVERY) {
            let t = Instant::now();
            if let Err(e) = self.m.checkpoint(now) {
                self.fail(format!("checkpoint: {e}"));
            }
            ckpt = Some((t, Instant::now()));
        }
        let t_end = Instant::now();
        let wall = t_end - t_round;
        let propose = t_prop - t_round;

        // Accounting: the scheduler's own timings must fit inside the
        // benchmark's spans around the calls that contain them. Each solve
        // runs inside `propose_all`; the scheduler's commit time (its
        // cycle time minus its solve time, whole microseconds, truncated
        // once per solve and once for the spans' sum) runs inside the
        // `commit` calls.
        if solve_sum > propose {
            self.fail(format!(
                "round {r}: solves report {:.3} ms of algorithm time inside a {:.3} ms propose_all",
                ms(solve_sum),
                ms(propose)
            ));
        }
        let sched_commit_us =
            (self.cycle_us.sum() - cycle0).saturating_sub(self.place_us.sum() - place0);
        if sched_commit_us > commit.as_micros() as u64 + n_solves + 1 {
            self.fail(format!(
                "round {r}: scheduler reports {sched_commit_us} us of commit inside {} us of commit calls",
                commit.as_micros()
            ));
        }

        // Spans: round → propose (→ per-solve), commits, checkpoint.
        if self.tracer.on {
            let root = self.tracer.record("core.round", None, r, t_round, t_end);
            let prop = self
                .tracer
                .record("core.propose_all", root, r, t_round, t_prop);
            // Solve durations are the scheduler's own (`algorithm_time`);
            // their start offsets inside propose are not observable from
            // outside, so they are laid end to end from its start (the
            // check above keeps them inside it).
            let mut at = t_round;
            for a in solve_times {
                self.tracer.record("core.solve", prop, r, at, at + a);
                at += a;
            }
            for (t, t1) in commit_spans {
                self.tracer.record("core.commit", root, r, t, t1);
            }
            if let Some((t, t1)) = ckpt {
                self.tracer.record("journal.checkpoint", root, r, t, t1);
            }
            // What the layer spans leave of the round is benchmark
            // bookkeeping between the calls.
            if let Some(root) = root {
                let gap = self.tracer.self_time_ns(root) as f64;
                self.accounting_gap.push(ratio(gap, wall.as_nanos() as f64));
            }
        }
        if let Some((t, t1)) = ckpt {
            self.checkpoint_ms.push(ms(t1 - t));
        }

        // Bookkeeping outside the measured interval.
        let committed_at = t_end;
        for d in &deployed {
            self.digest.add(d.app.0);
            for n in &d.nodes {
                self.digest.add(u64::from(n.0));
            }
            if measured {
                self.containers += d.containers.len() as u64;
            }
            if let Some((t, in_window)) = self.submitted_at.remove(&d.app.0) {
                if in_window {
                    self.place_ms.push((ms(committed_at - t), committed_at));
                    self.lras_placed += 1;
                }
                self.release_at
                    .entry(r + HOLD_ROUNDS)
                    .or_default()
                    .push(d.app.0);
            }
        }
        for app in self.m.take_dropped() {
            self.submitted_at.remove(&app.0);
            self.digest.add(u64::MAX - app.0);
        }
        if measured {
            self.index_ops += self.m.state().index_stats().update_ops - index_ops0;
            self.journal_bytes += self.m.journal_stats().bytes_appended - bytes0;
            self.journal_appends
                .push((self.m.journal_stats().records_appended - appends0) as f64);
            self.round_ms.push((ms(wall), t_round));
            self.propose_ms.push(ms(propose));
            self.commit_ms.push(ms(commit));
            self.solve_sum_ms.push(ms(solve_sum));
            self.shard_max_ms.push(ms(shard_max));
            self.overhead_ms.push(ms(propose.saturating_sub(solve_sum)));
            self.measured_rounds += 1;
        }

        if let Some((at, t)) = self.recovering {
            if self.m.recovery_report().containers_pending == 0 {
                self.recovery_ms.push(ms(committed_at - t));
                self.rounds_to_replace.push((r + 1 - at) as f64);
                self.recovering = None;
            }
        }
        if let Some(t) = self.failing_over {
            if !deployed.is_empty() {
                self.failover_ms.push(ms(committed_at - t));
                self.failing_over = None;
            }
        }
        let m = &self.m;
        let mut done = Vec::new();
        self.steadying.retain(|&(app, from)| {
            let steady = m
                .app_lifecycle(ApplicationId(app))
                .is_some_and(|lc| lc.phase == LifecyclePhase::Steady);
            if steady {
                done.push((r + 1 - from) as f64);
            }
            !steady
        });
        self.rounds_to_steady.extend(done);
        self.round += 1;
        if self.round == HOLD_ROUNDS {
            self.prefix_digest = Some(self.digest.value());
        }
    }

    /// Correctness gates: recovery ledger, audit, hard constraints.
    fn gates(&self, report: &mut Report, when: &str) {
        ledger_and_audit(&self.m, report, when);
        let (_, hard) = violations(&self.m);
        report.check(hard == 0, || {
            format!("{when}: {hard} containers violate a hard constraint")
        });
    }
}

/// Runs rounds until `budget` of wall time is spent after the warm-up
/// (or `rounds` rounds, when given). Returns the engine.
fn drive(
    seed: u64,
    traced: bool,
    budget: Option<Duration>,
    rounds: Option<u64>,
    report: &mut Report,
) -> Engine {
    let mut e = Engine::new(seed, traced);
    let mut t0 = Instant::now();
    loop {
        if e.round == HOLD_ROUNDS {
            t0 = Instant::now();
        }
        if rounds.is_some_and(|n| e.round >= n) {
            break;
        }
        if e.round >= HOLD_ROUNDS && budget.is_some_and(|b| t0.elapsed() >= b) {
            break;
        }
        e.round();
        if e.round.is_multiple_of(8) {
            e.gates(report, &format!("round {}", e.round));
        }
    }
    e
}

fn take_errors(e: &Engine, report: &mut Report) {
    report.failed += e.failed;
    report.failures.extend(e.errors.iter().cloned());
}

pub fn run(seed: u64, seconds: u64, traced: bool, report: &mut Report) {
    let budget = Duration::from_secs(seconds);
    if !traced {
        let e = drive(seed, false, Some(budget), None, report);
        e.gates(report, "end of run");
        // Same-seed replay of the warm-up rounds (they include node loss,
        // lifecycle changes, checkpoints and a restart): identical
        // placements.
        let replay = drive(seed, false, None, Some(HOLD_ROUNDS), report);
        let d1 = e.prefix_digest.unwrap_or(e.digest.value());
        let d2 = replay.digest.value();
        report.check(d1 == d2, || {
            format!("placement digest differs between same-seed runs over {HOLD_ROUNDS} rounds: {d1:016x} vs {d2:016x}")
        });
        // Set-up is repeated through the run (one sample is noise), and
        // the replay's set-up is one more sample; the median is reported.
        let mut setups = e.setups.clone();
        setups.extend(replay.setups.iter().copied());
        end_to_end(&e, &setups, report);
        report.attempted = e.lras_submitted;
        take_errors(&e, report);
        take_errors(&replay, report);
        eprintln!(
            "# {} measured rounds, {} LRAs submitted, {} placed, {} containers",
            e.measured_rounds, e.lras_submitted, e.lras_placed, e.containers
        );
    } else {
        // Phase A untraced for half the budget, phase B traced over the
        // same number of rounds from the same seed: identical inputs, so
        // the wall-time difference is the tracing overhead and the
        // digests must agree.
        let a = drive(seed, false, Some(budget / 2), None, report);
        let mut b = drive(seed, true, None, Some(a.round.max(1)), report);
        b.analyse();
        report.check(a.digest.value() == b.digest.value(), || {
            format!(
                "traced and untraced same-seed runs placed differently ({:016x} vs {:016x})",
                a.digest.value(),
                b.digest.value()
            )
        });
        b.gates(report, "end of traced run");
        // Both halves at the reference host speed, so that the host's
        // drift between them is not read as tracing overhead.
        let overhead = ratio(sum(&b.round_ms_normalized()), sum(&a.round_ms_normalized())) - 1.0;
        per_layer(&b, overhead, report);
        report.attempted = a.lras_submitted + b.lras_submitted;
        take_errors(&a, report);
        take_errors(&b, report);
        let path = format!("perfbench/out/trace-scale_churn-{seed}.jsonl");
        if let Err(err) = b
            .tracer
            .write(&path, &provenance("scale_churn", seed, seconds, true))
        {
            eprintln!("# cannot write {path}: {err}");
        } else {
            eprintln!("# spans: {path} ({} spans)", b.tracer.spans.len());
        }
    }
}

impl Engine {
    /// Measured rounds' wall times at the reference host speed.
    fn round_ms_normalized(&self) -> Vec<f64> {
        self.round_ms
            .iter()
            .map(|&(v, at)| self.speed.normalize(v, at))
            .collect()
    }
}

/// Raw values, and the same values at the reference host speed.
fn both(speed: &HostSpeed, samples: &[(f64, Instant)]) -> (Vec<f64>, Vec<f64>) {
    samples
        .iter()
        .map(|&(v, at)| (v, speed.normalize(v, at)))
        .unzip()
}

fn end_to_end(e: &Engine, setups: &[(f64, Instant)], report: &mut Report) {
    let (place_raw, place) = both(&e.speed, &e.place_ms);
    let (round_raw, round) = both(&e.speed, &e.round_ms);
    let (setup_raw, setup) = both(&e.speed, setups);
    // The latency limit applies to the latency the run saw.
    let within = place_raw.iter().filter(|&&l| l <= LATENCY_LIMIT_MS).count();
    report.set("setup_s", median(&setup), "s");
    report.set("place_p50_ms", median(&place), "ms");
    report.set("place_p90_ms", quantile(&place, 0.9), "ms");
    report.set(
        "place_ok_frac",
        ratio(within as f64, e.lras_submitted as f64),
        "ratio",
    );
    report.set("round_p50_ms", median(&round), "ms");
    report.set(
        "containers_per_s",
        ratio(e.containers as f64, sum(&round) / 1e3),
        "1/s",
    );
    eprintln!(
        "# raw (host speed {:.3} of reference, {} probes): setup_s {:.6} place_p50_ms {:.3} place_p90_ms {:.3} round_p50_ms {:.3} containers_per_s {:.3} ({} set-ups)",
        1.0 / e.speed.slowdown(),
        e.speed.probes(),
        median(&setup_raw),
        median(&place_raw),
        quantile(&place_raw, 0.9),
        median(&round_raw),
        ratio(e.containers as f64, sum(&round_raw) / 1e3),
        setups.len()
    );
    report.set(
        "lra_placed_frac",
        ratio(e.lras_placed as f64, e.lras_submitted as f64),
        "ratio",
    );
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
}

fn per_layer(e: &Engine, overhead: f64, report: &mut Report) {
    let snap = e.registry.snapshot();
    let counter = |n: &str| snap.counter(n).unwrap_or(0) as f64;
    report.set("core.propose_ms", median(&e.propose_ms), "ms");
    report.set("core.commit_ms", median(&e.commit_ms), "ms");
    report.set("core.solve_sum_ms", median(&e.solve_sum_ms), "ms");
    report.set("core.shard_solve_max_ms", median(&e.shard_max_ms), "ms");
    report.set("core.propose_overhead_ms", median(&e.overhead_ms), "ms");
    report.set(
        "core.conflict_frac",
        ratio(
            counter("core.commit_conflicts_total") + counter("core.shard_resubmissions_total"),
            e.proposed_lras as f64,
        ),
        "ratio",
    );
    report.set("heuristics.nc_place_ms", median(&e.nc_place_ms), "ms");
    report.set(
        "constraints.checks_per_container",
        median(&e.checks_per_container),
        "count",
    );
    report.set("constraints.check_ns", median(&e.check_ns), "ns");
    report.set("constraints.violation_frac", violations(&e.m).0, "ratio");
    report.set("cluster.snapshot_ms", median(&e.snapshot_ms), "ms");
    report.set(
        "cluster.index_update_ops_per_container",
        ratio(e.index_ops as f64, e.containers as f64),
        "count",
    );
    report.set(
        "journal.bytes_per_container",
        ratio(e.journal_bytes as f64, e.containers as f64),
        "B",
    );
    report.set(
        "journal.appends_per_round",
        median(&e.journal_appends),
        "count",
    );
    report.set("journal.checkpoint_ms", median(&e.checkpoint_ms), "ms");
    report.set("journal.restore_ms", median(&e.restore_ms), "ms");
    report.set("journal.failover_ms", median(&e.failover_ms), "ms");
    report.set("recovery.node_lost_us", median(&e.node_lost_us), "us");
    report.set(
        "recovery.rounds_to_replace",
        median(&e.rounds_to_replace),
        "count",
    );
    report.set("recovery.recovery_ms", median(&e.recovery_ms), "ms");
    report.set(
        "lifecycle.rounds_to_steady",
        median(&e.rounds_to_steady),
        "count",
    );
    report.set(
        "lifecycle.budget_denials",
        counter("core.disruption_budget_denials_total"),
        "count",
    );
    report.set("bench.trace_overhead_frac", overhead, "ratio");
    report.set("bench.host_probe_ms", e.speed.probe_ms(), "ms");
    report.set(
        "bench.accounting_gap_max_frac",
        max(&e.accounting_gap),
        "ratio",
    );
    report.set("bench.rounds", e.measured_rounds as f64, "count");
    report.check(max(&e.accounting_gap) <= ACCOUNTING_TOLERANCE, || {
        format!(
            "layer spans leave {:.2}% of a round unaccounted (tolerance {:.0}%)",
            max(&e.accounting_gap) * 100.0,
            ACCOUNTING_TOLERANCE * 100.0
        )
    });
}
