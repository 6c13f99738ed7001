//! The served workload: `served-mixed`.
//!
//! A `net::Server` with one worker runs inside this process on an
//! ephemeral loopback port, over a freshly built sharded FPTree with no
//! cache. One client connection keeps [`WINDOW`] requests in flight
//! (closed loop), times each from send to response, and checks every
//! response against a model of the acked state: the server executes
//! one connection's requests in order, so the model replayed at send
//! time predicts each answer.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use index_api::RangeIndex;
use net::{ClientConn, ReqOp, Server, ServerConfig, Status};
use pibench::keys::KeySpace;
use pibench::workload::{Op, OpKind, OpStream};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::inproc::{latency_metrics, thread_seed};
use crate::lat::Windows;
use crate::stack::{self, Stack, StackCfg};
use crate::trace::{self, Layer};
use crate::verify::{self, Finals, Violation};
use crate::{metric, ratio, Metric, Outcome, RunCfg, SCAN_LEN};

/// Requests in flight on the client connection.
pub const WINDOW: usize = 32;
/// How long to wait for answers after the measured phase.
const DRAIN_WAIT: Duration = Duration::from_secs(5);

/// The `net.*` metrics of a stack with no serving layer.
pub fn absent_net_layers() -> Vec<Metric> {
    [
        ("net.wire_ns_per_op", "ns/op"),
        ("net.index_ns_per_op", "ns/op"),
        ("net.fence_ns_per_op", "ns/op"),
        ("net.writes_per_batch", "count"),
        ("net.fence_epochs_per_kwrite", "1/kwrite"),
        ("net.client_wait_ns_per_op", "ns/op"),
    ]
    .into_iter()
    .map(|(n, u)| metric(n, 0.0, u))
    .collect()
}

/// `ServeStats` fields read at one instant.
#[derive(Default, Clone, Copy)]
struct Serve {
    served: u64,
    wire_ns: u64,
    index_ns: u64,
    fence_ns: u64,
    batches: u64,
    batch_ops: u64,
    fence_epochs: u64,
    acked_writes: u64,
}

fn serve_snapshot(s: &net::ServeStats) -> Serve {
    let l = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
    Serve {
        served: s.total_served(),
        wire_ns: l(&s.wire_ns),
        index_ns: l(&s.index_ns),
        fence_ns: l(&s.fence_ns),
        batches: l(&s.batches),
        batch_ops: l(&s.batch_ops),
        fence_epochs: l(&s.fence_epochs),
        acked_writes: l(&s.acked_writes),
    }
}

fn start_server(stack: &Stack) -> Server {
    Server::start(
        stack.top.clone(),
        stack.pools.clone(),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("start the server on an ephemeral loopback port")
}

fn stop_server(server: Server) {
    server.handle().drain();
    let report = server.join();
    assert!(!report.halted, "server halted");
}

struct InFlight {
    sent: Instant,
    op: Op,
    /// For a lookup, the value it must return; for a write, the value
    /// the key held before it.
    expect: u64,
}

struct ClientOut {
    completed: u64,
    failed: u64,
    inserts: u64,
    win: Windows,
    opgen_ticks: u64,
    /// Final value of every key written and acked.
    model: HashMap<u64, u64>,
    /// Writes refused or never answered, with the value the key held
    /// before: the key may hold either that or the written value.
    unsure: HashMap<u64, u64>,
    violation: Option<Violation>,
}

fn to_reqop(op: Op) -> ReqOp {
    match op {
        Op::Lookup(k) => ReqOp::Lookup(k),
        Op::Insert(k, v) => ReqOp::Insert(k, v),
        Op::Update(k, v) => ReqOp::Update(k, v),
        Op::Remove(k) => ReqOp::Remove(k),
        Op::Scan(k, n) => ReqOp::Scan(k, n as u32),
    }
}

/// The closed-loop client for the measured phase.
fn drive(addr: &str, ks: &KeySpace, cfg: &RunCfg) -> ClientOut {
    let w = cfg.workload;
    let stream = OpStream::new(
        w.mix(),
        w.dist(ks.prefilled()).sampler(ks.prefilled()),
        ks,
        SCAN_LEN,
    );
    let mut rng = SmallRng::seed_from_u64(thread_seed(cfg.seed, 0));
    let mut conn = ClientConn::connect(addr).expect("connect to the in-process server");
    let mut out = ClientOut {
        completed: 0,
        failed: 0,
        inserts: 0,
        win: Windows::new(cfg.seconds),
        opgen_ticks: 0,
        model: HashMap::new(),
        unsure: HashMap::new(),
        violation: None,
    };
    let mut inflight: HashMap<u64, InFlight> = HashMap::with_capacity(2 * WINDOW);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(cfg.seconds);
    loop {
        let now = Instant::now();
        let sending = now < deadline && out.violation.is_none() && !conn.server_closed;
        if !sending && (inflight.is_empty() || now > deadline + DRAIN_WAIT || conn.server_closed) {
            break;
        }
        while sending && inflight.len() < WINDOW {
            let op = if cfg.traced {
                let g = trace::ticks();
                let op = stream.next_op(&mut rng);
                out.opgen_ticks += trace::ticks() - g;
                op
            } else {
                stream.next_op(&mut rng)
            };
            let expect = match op {
                Op::Lookup(k) => out
                    .model
                    .get(&k)
                    .copied()
                    .unwrap_or_else(|| ks.value_for(k)),
                Op::Update(k, v) => out.model.insert(k, v).unwrap_or_else(|| ks.value_for(k)),
                Op::Insert(k, v) => {
                    out.inserts += 1;
                    out.model.insert(k, v);
                    v
                }
                _ => unreachable!("served-mixed sends lookups, inserts and updates only"),
            };
            let id = conn.send(to_reqop(op));
            inflight.insert(
                id,
                InFlight {
                    sent: Instant::now(),
                    op,
                    expect,
                },
            );
        }
        let resps = match conn.pump() {
            Ok(r) => r,
            Err(_) => break,
        };
        if resps.is_empty() {
            // Let the server worker have the CPU if it shares ours.
            std::thread::yield_now();
            continue;
        }
        let now = Instant::now();
        for r in resps {
            let Some(f) = inflight.remove(&r.req_id) else {
                out.failed += 1;
                continue;
            };
            let key = match f.op {
                Op::Lookup(k) | Op::Insert(k, _) | Op::Update(k, _) => k,
                _ => 0,
            };
            match r.status {
                Status::Ok => {}
                Status::Miss => {
                    let what = match f.op {
                        Op::Lookup(_) => "lookup of a prefilled key missed",
                        Op::Update(..) => "update of a prefilled key missed",
                        _ => "fresh insert refused",
                    };
                    verify::note(&mut out.violation, Violation::new(key, what));
                    continue;
                }
                _ => {
                    out.failed += 1;
                    if f.op.kind() != OpKind::Lookup {
                        out.unsure.insert(key, f.expect);
                    }
                    continue;
                }
            }
            if let Op::Lookup(k) = f.op {
                if r.value != Some(f.expect) && !out.unsure.contains_key(&k) {
                    verify::note(
                        &mut out.violation,
                        Violation::new(
                            k,
                            format!("lookup returned {:x?}, {:#x} acked", r.value, f.expect),
                        ),
                    );
                }
            }
            out.win.record(
                (f.sent - t0).as_nanos() as u64,
                f.op.kind() as usize,
                (now - f.sent).as_nanos() as u64,
            );
            out.completed += 1;
        }
    }
    for f in inflight.into_values() {
        out.failed += 1;
        if let Op::Insert(k, _) | Op::Update(k, _) = f.op {
            out.unsure.insert(k, f.expect);
        }
    }
    out
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let records = cfg.scale.records;
    let scfg = StackCfg {
        records,
        pm: cfg.pm.clone(),
        cache_bytes: None,
        traced: cfg.traced,
        fault: cfg.fault,
    };
    let mut setup_times = Vec::with_capacity(cfg.setups);
    let mut kept: Option<(Stack, Server)> = None;
    for _ in 0..cfg.setups.max(1) {
        if let Some((stack, server)) = kept.take() {
            stop_server(server);
            drop(stack);
        }
        let t0 = Instant::now();
        let (stack, _) = stack::build(&scfg);
        let server = start_server(&stack);
        setup_times.push(t0.elapsed());
        kept = Some((stack, server));
    }
    let (stack, server) = kept.expect("at least one set-up");
    let ks = KeySpace::new(records);

    if cfg.traced {
        trace::reset();
    }
    let loaded = stack.engine.footprint();
    let before = stack.counters();
    let serve_before = serve_snapshot(&server.stats());
    let client = drive(&server.local_addr().to_string(), &ks, cfg);
    let stats = server.stats();
    stop_server(server);
    let serve = {
        let a = serve_snapshot(&stats);
        let b = serve_before;
        Serve {
            served: a.served - b.served,
            wire_ns: a.wire_ns - b.wire_ns,
            index_ns: a.index_ns - b.index_ns,
            fence_ns: a.fence_ns - b.fence_ns,
            batches: a.batches - b.batches,
            batch_ops: a.batch_ops - b.batch_ops,
            fence_epochs: a.fence_epochs - b.fence_epochs,
            acked_writes: a.acked_writes - b.acked_writes,
        }
    };
    let after = stack.counters();
    let spans = trace::totals();
    let footprint = stack.engine.footprint();

    let attempted = client.completed + client.failed;
    let mut out = Outcome {
        attempted,
        failed: client.failed,
        violation: client.violation.clone(),
        ..Default::default()
    };
    let ops = client.completed as f64;
    let pm = after.pm.since(&before.pm);
    latency_metrics(&mut out, &client.win);
    out.e2e.push(metric(
        "pm_read_bytes_per_op",
        ratio(pm.media_read_bytes as f64, ops),
        "B/op",
    ));
    out.e2e.push(metric(
        "pm_media_bytes_per_op",
        ratio((pm.media_read_bytes + pm.media_write_bytes) as f64, ops),
        "B/op",
    ));
    out.e2e.push(metric(
        "pm_write_bytes_per_op",
        ratio(pm.media_write_bytes as f64, ops),
        "B/op",
    ));
    crate::footprint_metrics(
        &mut out,
        loaded,
        records,
        footprint,
        records + client.inserts,
    );
    out.e2e
        .push(metric("setup_s", crate::median_s(&setup_times), "s"));
    out.e2e.push(metric(
        "failed_op_share",
        ratio(client.failed as f64, attempted as f64),
        "fraction",
    ));

    if cfg.traced {
        let engine = spans.layer(Layer::Engine);
        let tree = spans.layer(Layer::Fptree);
        let served = serve.served as f64;
        let server_ns = (serve.wire_ns + serve.index_ns + serve.fence_ns) as f64;
        out.top_span_ns = ratio(engine.total_ns as f64, engine.calls as f64);
        out.layers = vec![
            metric(
                "pibench.opgen_ns_per_op",
                ratio(
                    trace::ticks_to_ns(client.opgen_ticks) as f64,
                    attempted as f64,
                ),
                "ns/op",
            ),
            metric("cache.self_ns_per_op", 0.0, "ns/op"),
            metric(
                "engine.self_ns_per_op",
                ratio(engine.self_ns() as f64, served),
                "ns/op",
            ),
            metric("engine.inner_scans_per_scan", 0.0, "count"),
            metric(
                "trace.self_sum_share",
                ratio(
                    (engine.self_ns() + tree.total_ns) as f64,
                    serve.index_ns as f64,
                ),
                "fraction",
            ),
        ];
        out.layers.extend(crate::tree_layers(&spans));
        out.layers
            .extend(crate::counter_layers(&before, &after, served));
        out.layers.extend([
            metric(
                "net.wire_ns_per_op",
                ratio(serve.wire_ns as f64, served),
                "ns/op",
            ),
            metric(
                "net.index_ns_per_op",
                ratio(serve.index_ns as f64, served),
                "ns/op",
            ),
            metric(
                "net.fence_ns_per_op",
                ratio(serve.fence_ns as f64, served),
                "ns/op",
            ),
            metric(
                "net.writes_per_batch",
                ratio(serve.batch_ops as f64, serve.batches as f64),
                "count",
            ),
            metric(
                "net.fence_epochs_per_kwrite",
                ratio(serve.fence_epochs as f64 * 1e3, serve.acked_writes as f64),
                "1/kwrite",
            ),
            metric(
                "net.client_wait_ns_per_op",
                client.win.total(&[0, 1, 2, 3, 4]).mean() - ratio(server_ns, served),
                "ns/op",
            ),
        ]);
    }

    // Every acked write must be in the index, then survive a power cut.
    let state = stack::full_scan(&*stack.engine);
    let mut finals = Finals::default();
    finals.add_writer(&client.model.into_iter().collect::<Vec<_>>());
    if let Some(v) = verify::check_state(
        &ks,
        records + client.inserts,
        &finals,
        &client.unsure,
        &state,
    ) {
        verify::note(&mut out.violation, v);
    }
    if cfg.restarts > 0 {
        let pools = stack.pools.clone();
        drop(stack);
        let (times, reopened) = stack::crash_and_recover(&pools, cfg.restarts);
        out.e2e
            .push(metric("recovery_s", crate::median_s(&times), "s"));
        if let Some(v) = verify::check_restart(&state, &stack::full_scan(&*reopened)) {
            verify::note(&mut out.violation, v);
        }
    }
    out
}
