//! `serve`: a live `MedeaServer` on loopback, driven by one open-loop
//! client connection (a sender thread issuing `place` at a fixed rate and
//! a receiver thread polling `query` until `placed`, then releasing each
//! app after a fixed hold). Latency is timed from each request's due
//! time, so a generator stall is charged to the requests behind it.

use std::collections::HashMap;
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use medea_cluster::{ClusterState, Resources};
use medea_constraints::PlacementConstraint;
use medea_core::{HeuristicScheduler, LraAlgorithm, LraRequest, MedeaScheduler, Ordering as Nc};
use medea_journal::{FileStorage, Wal};
use medea_obs::MetricsRegistry;
use medea_server::{
    write_frame, ContainerSpec, FrameReader, MedeaServer, Request, Response, ServerConfig,
    ServerHandle, MAX_FRAME_BYTES,
};

use crate::common::*;

const NODES: usize = 512;
/// Same rack size as `medea_serve`'s defaults (256 nodes, 8 racks).
const RACKS: usize = 16;
/// Open-loop arrival rate, LRAs per second. Well under capacity: a
/// single-LRA round takes ~0.2 s here, while batches of several LRAs
/// (arrivals that meet in the admission queue) take far longer; at 3/s
/// the backlog grows without bound, and at 2/s one run in ~30 stalled in
/// a batch that did not finish in 13 minutes.
const RATE: f64 = 1.5;
/// How long each placed app is held before its release.
const HOLD: Duration = Duration::from_secs(3);
/// Interval between `query` polls of one pending app.
const POLL: Duration = Duration::from_millis(5);
/// Latency limit for `place_ok_frac`.
const LIMIT_MS: f64 = 1000.0;
/// How long the run waits for stragglers after the last `place`.
const DRAIN_WAIT: Duration = Duration::from_secs(20);
/// `medea_serve`'s default checkpoint cadence.
const CHECKPOINT_EVERY: u64 = 64;
/// Set-ups timed per untraced run besides the run's own.
const EXTRA_SETUPS: usize = 12;
/// Receiver-side request ids start here (sender ids count from 1).
const RX_IDS: u64 = 1 << 40;
/// The sender probes the host speed this long before a `place` is due,
/// when every earlier app has its fate (the server is idle).
const PROBE_LEAD: Duration = Duration::from_millis(100);
/// Host-speed probes before the traffic starts.
const PROBES_BEFORE: usize = 4;

/// The wire form of an LRA: container groups and §4.2 constraint text.
fn wire_place(id: u64, req: &LraRequest) -> Request {
    let mut containers: Vec<ContainerSpec> = Vec::new();
    for c in &req.containers {
        let tags: Vec<String> = c.tags.iter().map(|t| t.to_string()).collect();
        match containers.last_mut() {
            Some(last)
                if last.memory_mb == c.resources.memory_mb
                    && last.vcores == c.resources.vcores
                    && last.tags == tags =>
            {
                last.count += 1
            }
            _ => containers.push(ContainerSpec {
                count: 1,
                memory_mb: c.resources.memory_mb,
                vcores: c.resources.vcores,
                tags,
            }),
        }
    }
    let constraints = req
        .constraints
        .iter()
        .map(|c: &PlacementConstraint| {
            if c.is_hard() {
                format!("{c} weight=hard")
            } else {
                format!("{c} weight={}", c.weight)
            }
        })
        .collect();
    Request::Place {
        id,
        tenant: "bench".to_string(),
        app: req.app.0,
        containers,
        constraints,
    }
}

struct Server {
    handle: ServerHandle,
    registry: Arc<MetricsRegistry>,
    stream: TcpStream,
    dir: String,
}

/// Cluster build, journal attach, server start and connect: everything
/// up to the first request.
fn start(tag: &str) -> (Server, Duration) {
    let t = Instant::now();
    let dir = format!("perfbench/out/journal-{}-{tag}", std::process::id());
    let _ = std::fs::remove_dir_all(&dir);
    let registry = MetricsRegistry::new();
    let cluster = ClusterState::homogeneous(NODES, Resources::new(16 * 1024, 16), RACKS);
    let mut m =
        MedeaScheduler::new(cluster, LraAlgorithm::Ilp, 10).with_metrics(Arc::clone(&registry));
    let storage = FileStorage::open(&dir).expect("journal dir opens");
    m.attach_journal(Wal::new(storage), CHECKPOINT_EVERY)
        .expect("journal attaches");
    let handle = MedeaServer::start(m, ServerConfig::default(), Arc::clone(&registry))
        .expect("server binds on loopback");
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_millis(1)))
        .expect("read timeout");
    (
        Server {
            handle,
            registry,
            stream,
            dir,
        },
        t.elapsed(),
    )
}

impl Server {
    fn stop(self, report: &mut Report) {
        drop(self.stream);
        let drain = self.handle.shutdown(true);
        report.check(drain.drain_complete, || {
            "server drain incomplete".to_string()
        });
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Per-request timestamps of one `place`.
#[derive(Clone)]
struct Place {
    app: u64,
    due: Instant,
    sent: Instant,
    /// First reply to the `place` (accepted, shed or error), and the
    /// time it said `accepted`.
    replied: Option<Instant>,
    acked: Option<Instant>,
    placed: Option<Instant>,
    containers: u64,
    queries: u64,
    failed: Option<String>,
}

#[derive(Default)]
struct Traffic {
    places: Vec<Place>,
    requests: u64,
    responses: u64,
    errors: u64,
    shed: u64,
    sent_frames: Vec<String>,
    recv_frames: Vec<String>,
    hard_violations: usize,
    violation_frac: f64,
    /// Ledger, audit and drain checks made on the server side.
    checks: Report,
    registry: Option<Arc<MetricsRegistry>>,
    nc_place_ms: Vec<f64>,
    checks_per_container: f64,
    check_ns: f64,
    snapshot_ms: f64,
    journal: medea_journal::JournalStats,
    containers_placed: u64,
    /// Host-speed probes taken around and between the `place`s.
    speed: HostSpeed,
}

fn send(w: &Mutex<TcpStream>, req: &Request) -> String {
    let payload = req.encode();
    let mut s = w.lock().unwrap_or_else(|p| p.into_inner());
    write_frame(&mut *s, payload.as_bytes()).expect("send frame");
    let _ = s.flush();
    payload
}

/// Runs the open-loop traffic for `seconds` against a fresh server.
fn traffic(seed: u64, seconds: f64, analyse: bool) -> (Traffic, f64) {
    let (srv, setup) = start("run");
    let n = (seconds * RATE).ceil() as usize;
    let mut mix = LraMix::new(seed, 1);
    let lras: Vec<LraRequest> = (0..n).flat_map(|_| mix.next_batch()).collect();
    let writer = Arc::new(Mutex::new(srv.stream.try_clone().expect("clone stream")));
    let places: Arc<Mutex<Vec<Place>>> = Arc::new(Mutex::new(Vec::with_capacity(n)));
    let sending_done = Arc::new(AtomicBool::new(false));
    let mut speed = HostSpeed::default();
    for _ in 0..PROBES_BEFORE {
        speed.probe();
    }
    let t0 = Instant::now() + Duration::from_millis(20);

    let sender = {
        let writer = Arc::clone(&writer);
        let places = Arc::clone(&places);
        let sending_done = Arc::clone(&sending_done);
        let lras = lras.clone();
        std::thread::spawn(move || {
            let mut frames = Vec::with_capacity(lras.len());
            for (i, req) in lras.iter().enumerate() {
                let due = t0 + Duration::from_secs_f64(i as f64 / RATE);
                let now = Instant::now();
                let idle = || {
                    let ps = places.lock().unwrap();
                    ps.iter().all(|p| p.placed.is_some() || p.failed.is_some())
                };
                if due > now + PROBE_LEAD {
                    std::thread::sleep(due - PROBE_LEAD - now);
                    if idle() {
                        speed.probe();
                    }
                }
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                places.lock().unwrap().push(Place {
                    app: req.app.0,
                    due,
                    sent: Instant::now(),
                    replied: None,
                    acked: None,
                    placed: None,
                    containers: req.containers.len() as u64,
                    queries: 0,
                    failed: None,
                });
                frames.push(send(&writer, &wire_place(i as u64 + 1, req)));
            }
            sending_done.store(true, Ordering::SeqCst);
            (frames, speed)
        })
    };

    // Receiver: replies, query polling and releases.
    let mut t = Traffic::default();
    let mut reader = FrameReader::new(MAX_FRAME_BYTES);
    let mut rx = srv.stream.try_clone().expect("clone stream");
    let mut next_id = RX_IDS;
    let mut outstanding: HashMap<u64, (char, usize)> = HashMap::new();
    let mut next_poll: HashMap<usize, Instant> = HashMap::new();
    let mut release_at: Vec<(Instant, usize)> = Vec::new();
    let mut sent_end: Option<Instant> = None;
    let mut final_checks_done = false;
    loop {
        match reader.poll(&mut rx) {
            Ok(Some(payload)) => {
                let now = Instant::now();
                t.responses += 1;
                let text = String::from_utf8_lossy(&payload).into_owned();
                let resp = match Response::decode(&text) {
                    Ok(r) => r,
                    Err(e) => {
                        t.errors += 1;
                        eprintln!("# undecodable response: {e:?}");
                        continue;
                    }
                };
                if t.recv_frames.len() < 4096 {
                    t.recv_frames.push(text);
                }
                let id = resp.id();
                let mut ps = places.lock().unwrap();
                if id < RX_IDS {
                    let idx = (id - 1) as usize;
                    ps[idx].replied = Some(now);
                    match resp {
                        Response::Accepted { .. } => {
                            ps[idx].acked = Some(now);
                            next_poll.insert(idx, now);
                        }
                        Response::Overloaded { reason, .. } => {
                            t.shed += 1;
                            ps[idx].failed = Some(format!("shed: {reason}"));
                        }
                        other => {
                            t.errors += 1;
                            ps[idx].failed = Some(format!("place reply {other:?}"));
                        }
                    }
                } else if let Some((kind, idx)) = outstanding.remove(&id) {
                    match (kind, resp) {
                        ('q', Response::AppStatus { phase, .. }) => match phase.as_str() {
                            "placed" => {
                                ps[idx].placed = Some(now);
                                release_at.push((now + HOLD, idx));
                            }
                            "pending" => {
                                next_poll.insert(idx, now + POLL);
                            }
                            other => {
                                ps[idx].failed = Some(format!("phase {other}"));
                            }
                        },
                        ('r', Response::Released { .. }) => {}
                        (_, other) => {
                            t.errors += 1;
                            eprintln!("# unexpected reply {other:?}");
                        }
                    }
                }
            }
            Ok(None) => {}
            Err(e) => panic!("connection error mid-run: {e}"),
        }
        let now = Instant::now();
        let done_sending = sending_done.load(Ordering::SeqCst);
        if done_sending && sent_end.is_none() {
            sent_end = Some(now);
        }
        let draining = sent_end.is_some_and(|e| now > e + DRAIN_WAIT);
        // Polls.
        let due: Vec<usize> = next_poll
            .iter()
            .filter(|(_, &at)| at <= now)
            .map(|(&i, _)| i)
            .collect();
        for idx in due {
            next_poll.remove(&idx);
            let app = {
                let mut ps = places.lock().unwrap();
                ps[idx].queries += 1;
                ps[idx].app
            };
            let id = next_id;
            next_id += 1;
            outstanding.insert(id, ('q', idx));
            send(&writer, &Request::Query { id, app });
            t.requests += 1;
        }
        // Once every app has its fate (or the wait ran out), check the
        // cluster while the apps are still held, then release them all.
        let all_settled = done_sending && {
            let ps = places.lock().unwrap();
            ps.len() == n && ps.iter().all(|p| p.placed.is_some() || p.failed.is_some())
        };
        if (all_settled || draining) && !final_checks_done {
            final_checks_done = true;
            let sched = srv.handle.scheduler();
            let (frac, hard, audit, snap_ms, journal) = sched.with_writer(|m| {
                let (frac, hard) = violations(m);
                let mut audit = Report::default();
                ledger_and_audit(m, &mut audit, "end of serve traffic");
                let ts = Instant::now();
                drop(m.state().snapshot());
                (frac, hard, audit, ms(ts.elapsed()), m.journal_stats())
            });
            t.violation_frac = frac;
            t.hard_violations = hard;
            t.checks = audit;
            t.snapshot_ms = snap_ms;
            t.journal = journal;
            if analyse {
                analyse_layers(&srv.handle, &lras, &mut t);
            }
            for r in release_at.iter_mut() {
                r.0 = now;
            }
        }
        // Releases.
        let mut i = 0;
        while i < release_at.len() {
            if release_at[i].0 <= now {
                let (_, idx) = release_at.swap_remove(i);
                let app = places.lock().unwrap()[idx].app;
                let id = next_id;
                next_id += 1;
                outstanding.insert(id, ('r', idx));
                send(
                    &writer,
                    &Request::Release {
                        id,
                        tenant: "bench".to_string(),
                        app,
                    },
                );
                t.requests += 1;
            } else {
                i += 1;
            }
        }
        if final_checks_done && release_at.is_empty() && outstanding.is_empty() {
            break;
        }
        if draining && sent_end.is_some_and(|e| now > e + DRAIN_WAIT * 2) {
            eprintln!("# responses still outstanding after the drain wait");
            break;
        }
    }
    let (frames, speed) = sender.join().expect("sender thread");
    t.speed = speed;
    t.requests += frames.len() as u64;
    t.sent_frames = frames;
    t.places = places.lock().unwrap().clone();
    t.containers_placed = t
        .places
        .iter()
        .filter(|p| p.placed.is_some())
        .map(|p| p.containers)
        .sum();
    t.registry = Some(Arc::clone(&srv.registry));
    srv.stop(&mut t.checks);
    (t, setup.as_secs_f64())
}

/// Traced-run only: the heuristic and constraint layers on the server's
/// own state with the run's LRAs (one per batch, as the server batches
/// them at this rate).
fn analyse_layers(handle: &ServerHandle, lras: &[LraRequest], t: &mut Traffic) {
    let (state, deployed) = handle.scheduler().with_writer(|m| {
        (
            m.state().clone(),
            m.constraint_manager().active_constraints(),
        )
    });
    let mut per = Vec::new();
    let mut ns = Vec::new();
    for req in lras.iter().take(3) {
        let batch = std::slice::from_ref(req);
        let t0 = Instant::now();
        std::hint::black_box(
            HeuristicScheduler::new(Nc::NodeCandidates).place(&state, batch, &deployed),
        );
        t.nc_place_ms.push(ms(t0.elapsed()));
        let (p, n) = candidate_pass(&state, batch, &deployed);
        per.push(p);
        ns.push(n);
    }
    t.checks_per_container = median(&per);
    t.check_ns = median(&ns);
}

pub fn run(seed: u64, seconds: u64, traced: bool, report: &mut Report) {
    let secs = seconds as f64;
    if !traced {
        // Extra set-ups for a steady set-up median, half before the
        // traffic and half after it, so that the median spans the run;
        // each follows a host-speed probe.
        let mut setups = Vec::new();
        let mut speed = HostSpeed::default();
        let mut extra_setup = |i: usize, report: &mut Report| {
            speed.probe();
            let (srv, s) = start(&format!("setup{i}"));
            srv.stop(report);
            s.as_secs_f64()
        };
        for i in 0..EXTRA_SETUPS / 2 {
            setups.push(extra_setup(i, report));
        }
        let (mut t, setup) = traffic(seed, secs, false);
        setups.push(setup);
        for i in EXTRA_SETUPS / 2..EXTRA_SETUPS {
            setups.push(extra_setup(i, report));
        }
        gates(&t, report);
        t.speed.extend(&speed);
        eprintln!(
            "# raw set-up median {:.6} s ({} set-ups)",
            median(&setups),
            setups.len()
        );
        end_to_end(&t, median(&setups) / t.speed.slowdown(), report);
    } else {
        // The spans are built after the traffic from the timestamps an
        // untraced run takes as well, and the layer analysis runs once
        // every app has its fate: tracing adds nothing to the timed path.
        let (t, _) = traffic(seed, secs, true);
        gates(&t, report);
        per_layer(&t, report);
        let mut tracer = Tracer::new(true);
        for (i, p) in t.places.iter().enumerate() {
            if let (s, Some(ack), Some(done)) = (p.sent, p.acked, p.placed) {
                let root = tracer.record("serve.place", None, i as u64 + 1, p.due, done);
                tracer.record("bench.gen_late", root, i as u64 + 1, p.due, s);
                tracer.record("server.place_ack", root, i as u64 + 1, s, ack);
                tracer.record("server.queue_to_placed", root, i as u64 + 1, ack, done);
            }
        }
        let path = format!("perfbench/out/trace-serve-{seed}.jsonl");
        match tracer.write(&path, &provenance("serve", seed, seconds, true)) {
            Ok(()) => eprintln!("# spans: {path} ({} spans)", tracer.spans.len()),
            Err(e) => eprintln!("# cannot write {path}: {e}"),
        }
    }
}

fn latencies(t: &Traffic) -> Vec<f64> {
    t.places
        .iter()
        .filter_map(|p| p.placed.map(|d| ms(d - p.due)))
        .collect()
}

fn gates(t: &Traffic, report: &mut Report) {
    report.attempted += t.places.len() as u64;
    report.failed += t.errors;
    report.failures.extend(t.checks.failures.iter().cloned());
    report.check(t.responses == t.requests, || {
        format!("{} responses to {} requests", t.responses, t.requests)
    });
    report.check(t.hard_violations == 0, || {
        format!("{} containers violate a hard constraint", t.hard_violations)
    });
    if let Some(reg) = &t.registry {
        let pe = reg.counter("server.protocol_errors_total").get();
        report.check(pe == 0, || format!("server counted {pe} protocol errors"));
    }
    // The server's own timings must fit inside the client's. Admission
    // of each `place` (`server.admission_us`, frame read to reply) runs
    // between the client's send and its reply. Each placement cycle
    // (`core.cycle_time_us`, solve plus commit) runs between the send of
    // an app in its batch and the `query` reply saying `placed`; cycles
    // run one at a time, so once every app is placed the cycles fit
    // inside the sum of the apps' send-to-placed windows.
    if let Some(reg) = &t.registry {
        let admission = reg.histogram("server.admission_us");
        let replies_us: f64 = t
            .places
            .iter()
            .filter_map(|p| Some((p.replied? - p.sent).as_secs_f64() * 1e6))
            .sum();
        report.check(admission.count() == t.places.len() as u64, || {
            format!(
                "server timed {} admissions of {} places",
                admission.count(),
                t.places.len()
            )
        });
        report.check(admission.sum() as f64 <= replies_us, || {
            format!(
                "server admission time {} us exceeds the client's send-to-reply time {replies_us:.0} us",
                admission.sum()
            )
        });
        if t.places.iter().all(|p| p.placed.is_some()) {
            let cycles_us = reg.histogram("core.cycle_time_us").sum() as f64;
            let windows_us: f64 = t
                .places
                .iter()
                .filter_map(|p| Some((p.placed? - p.sent).as_secs_f64() * 1e6))
                .sum();
            report.check(cycles_us <= windows_us, || {
                format!(
                    "server placement cycles {cycles_us:.0} us exceed the client's send-to-placed time {windows_us:.0} us"
                )
            });
        }
    }
    let unplaced: Vec<&str> = t
        .places
        .iter()
        .filter_map(|p| p.failed.as_deref())
        .collect();
    if !unplaced.is_empty() {
        eprintln!(
            "# {} places not placed, e.g. {}",
            unplaced.len(),
            unplaced[0]
        );
    }
}

fn end_to_end(t: &Traffic, setup_s: f64, report: &mut Report) {
    // Every timing takes the run's median host speed. The probes run on
    // the client's sender thread and the work on the server's threads,
    // possibly on the other vCPU, so the probes next to a `place` are a
    // noisier guide to its conditions than the run's median (see
    // `perfbench/README.md`, *Host speed*).
    let slowdown = t.speed.slowdown();
    let lat_raw = latencies(t);
    let lat: Vec<f64> = lat_raw.iter().map(|l| l / slowdown).collect();
    // The latency limit applies to the latency the client saw.
    let within = lat_raw.iter().filter(|&&l| l <= LIMIT_MS).count();
    let reg = t.registry.as_ref().expect("registry");
    // The server's rounds are seen only through the registry; its
    // bucketed quantiles repeat from run to run, so the exact mean of
    // `core.cycle_time_us` stands in for the median here.
    let cycle = reg.histogram("core.cycle_time_us");
    report.set("setup_s", setup_s, "s");
    report.set("place_p50_ms", median(&lat), "ms");
    report.set("place_p90_ms", quantile(&lat, 0.9), "ms");
    report.set(
        "place_ok_frac",
        ratio(within as f64, t.places.len() as f64),
        "ratio",
    );
    let cycle_ms = ratio(cycle.sum() as f64, cycle.count() as f64) / 1e3;
    report.set("round_p50_ms", cycle_ms / slowdown, "ms");
    // Containers per second of the server's placement cycles (not of the
    // sending time, which would only repeat the offered load).
    let per_s = ratio(t.containers_placed as f64, cycle.sum() as f64 / 1e6);
    report.set("containers_per_s", per_s * slowdown, "1/s");
    eprintln!(
        "# raw (host speed {:.3} of reference, {} probes): place_p50_ms {:.3} place_p90_ms {:.3} round_p50_ms {cycle_ms:.3} containers_per_s {per_s:.3}",
        1.0 / slowdown,
        t.speed.probes(),
        median(&lat_raw),
        quantile(&lat_raw, 0.9)
    );
    report.set(
        "lra_placed_frac",
        ratio(lat.len() as f64, t.places.len() as f64),
        "ratio",
    );
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    eprintln!(
        "# serve: {} places at {RATE}/s, {} placed, {} shed, {} errors, poll {} ms",
        t.places.len(),
        lat.len(),
        t.shed,
        t.errors,
        POLL.as_millis()
    );
}

fn per_layer(t: &Traffic, report: &mut Report) {
    let reg = t.registry.as_ref().expect("registry");
    let snap = reg.snapshot();
    let counter = |n: &str| snap.counter(n).unwrap_or(0) as f64;
    let h = |n: &str| snap.histogram(n).cloned();
    let ack: Vec<f64> = t
        .places
        .iter()
        .filter_map(|p| Some((p.acked? - p.sent).as_secs_f64() * 1e6))
        .collect();
    let q2p: Vec<f64> = t
        .places
        .iter()
        .filter_map(|p| Some(ms(p.placed? - p.acked?)))
        .collect();
    let late: Vec<f64> = t.places.iter().map(|p| ms(p.sent - p.due)).collect();
    let placed = t.places.iter().filter(|p| p.placed.is_some()).count() as f64;
    let queries: u64 = t.places.iter().map(|p| p.queries).sum();
    // Codec, as the server runs it: `Request::decode` of every `place`
    // frame the run sent and `Response::encode` of every reply it got.
    let replies: Vec<Response> = t
        .recv_frames
        .iter()
        .filter_map(|f| Response::decode(f).ok())
        .collect();
    let tc = Instant::now();
    for f in &t.sent_frames {
        let _ = std::hint::black_box(Request::decode(f));
    }
    for r in &replies {
        std::hint::black_box(r.encode());
    }
    let frames = t.sent_frames.len() + replies.len();
    let codec_us = ratio(tc.elapsed().as_secs_f64() * 1e6, frames as f64);
    let batch = h("server.batch_size");
    let cycle = h("core.cycle_time_us");
    let place = h("core.place_us");
    let ilp = h("core.ilp_solve_us");
    let ilp_count = ilp.as_ref().map_or(0, |x| x.count) as f64;
    let mean = |x: &Option<medea_obs::HistogramSummary>| {
        x.as_ref()
            .map_or(0.0, |x| ratio(x.sum as f64, x.count as f64))
    };
    report.set("server.ack_p50_us", median(&ack), "us");
    report.set("server.ack_p90_us", quantile(&ack, 0.9), "us");
    report.set("server.codec_us", codec_us, "us");
    report.set("server.batch_size_mean", mean(&batch), "count");
    report.set(
        "server.shed_frac",
        ratio(counter("server.shed_total"), t.places.len() as f64),
        "ratio",
    );
    report.set(
        "server.queries_per_place",
        ratio(queries as f64, placed),
        "count",
    );
    report.set("server.queue_to_placed_p50_ms", median(&q2p), "ms");
    // Inside the server a round is seen only through the scheduler's
    // histograms: each single-shard propose is its solve (`core.place_us`),
    // and the rest of `core.cycle_time_us` is the commit.
    report.set("core.propose_ms", mean(&place) / 1e3, "ms");
    report.set(
        "core.commit_ms",
        (mean(&cycle) - mean(&place)).max(0.0) / 1e3,
        "ms",
    );
    report.set("core.solve_sum_ms", mean(&place) / 1e3, "ms");
    report.set("core.shard_solve_max_ms", mean(&place) / 1e3, "ms");
    report.set(
        "core.conflict_frac",
        ratio(counter("core.commit_conflicts_total"), placed),
        "ratio",
    );
    report.set(
        "core.heuristic_fallback_total",
        counter("core.heuristic_fallback_total"),
        "count",
    );
    report.set("heuristics.nc_place_ms", median(&t.nc_place_ms), "ms");
    report.set(
        "constraints.checks_per_container",
        t.checks_per_container,
        "count",
    );
    report.set("constraints.check_ns", t.check_ns, "ns");
    report.set("constraints.violation_frac", t.violation_frac, "ratio");
    report.set(
        "ilp.solve_p50_ms",
        ilp.as_ref().map_or(0.0, |x| x.p50) / 1e3,
        "ms",
    );
    report.set(
        "ilp.solve_max_ms",
        ilp.as_ref().map_or(0, |x| x.max) as f64 / 1e3,
        "ms",
    );
    report.set(
        "ilp.solve_sum_ms",
        ilp.as_ref().map_or(0, |x| x.sum) as f64 / 1e3,
        "ms",
    );
    report.set(
        "ilp.solve_share",
        ratio(
            ilp.as_ref().map_or(0, |x| x.sum) as f64,
            place.as_ref().map_or(0, |x| x.sum) as f64,
        ),
        "ratio",
    );
    // Samples above the limit, read off the histogram's quantiles.
    let limit_us = medea_core::IlpConfig::default().time_limit.as_micros() as f64;
    let live = reg.histogram("core.ilp_solve_us");
    let over = if live.max() as f64 > limit_us {
        let mut q = 1.0;
        while q > 0.0 && live.quantile(q) > limit_us {
            q -= 1.0 / live.count().max(1) as f64;
        }
        ((1.0 - q) * live.count() as f64).round()
    } else {
        0.0
    };
    report.set("ilp.time_limit_overruns", over, "count");
    report.set(
        "solver.pivots_per_solve",
        ratio(counter("solver.simplex_pivots_total"), ilp_count),
        "count",
    );
    report.set(
        "solver.bnb_nodes_per_solve",
        ratio(counter("solver.bnb_nodes_explored_total"), ilp_count),
        "count",
    );
    report.set(
        "solver.warm_start_hits_per_solve",
        ratio(counter("core.ilp_warm_start_hits_total"), ilp_count),
        "count",
    );
    report.set(
        "solver.deadline_hits_total",
        counter("solver.deadline_hits_total"),
        "count",
    );
    report.set(
        "solver.node_limit_hits_total",
        counter("solver.node_limit_hits_total"),
        "count",
    );
    report.set("cluster.snapshot_ms", t.snapshot_ms, "ms");
    report.set(
        "cluster.index_update_ops_per_container",
        ratio(
            snap.gauge("cluster.index_update_ops").unwrap_or(0) as f64,
            t.containers_placed as f64,
        ),
        "count",
    );
    report.set(
        "journal.bytes_per_container",
        ratio(t.journal.bytes_appended as f64, t.containers_placed as f64),
        "B",
    );
    report.set(
        "journal.appends_per_round",
        ratio(
            t.journal.records_appended as f64,
            counter("core.cycles_total"),
        ),
        "count",
    );
    report.set("bench.gen_late_p50_ms", median(&late), "ms");
    report.set("bench.gen_late_max_ms", max(&late), "ms");
    report.set("bench.poll_interval_ms", ms(POLL), "ms");
    // Zero by construction (see `run`).
    report.set("bench.trace_overhead_frac", 0.0, "ratio");
    report.set("bench.host_probe_ms", t.speed.probe_ms(), "ms");
    report.set("bench.rounds", counter("core.cycles_total"), "count");
}
