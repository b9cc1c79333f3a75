//! `serve_mixed`: an in-process `passflow-serve` with the trained flow, a
//! `SampleTable` and a small PFDIGEST store, driven by a seeded
//! `Trace::synth` schedule — open loop at a fixed rate, then closed loop —
//! over the same keep-alive connections.

use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use passflow_core::{FlowScorer, FlowWorkspace, SampleTable};
use passflow_serve::client::Connection;
use passflow_serve::trace::{Endpoint, Trace, TraceRecord, TraceSynthProfile};
use passflow_serve::{json, serve, ModelRegistry, ServedModel, ServerConfig, ServerHandle};
use passflow_store::{DigestConfig, DigestStore, DigestStoreBuilder, FileIo};

use crate::measure::{median, nproc, quantile, CpuWindow, Report};
use crate::setup;
use crate::timed::{IoStats, TimedStoreIo};
use crate::{set_up, Args};

/// Open-loop request rate (requests per second), about a third of what
/// two connections sustain closed-loop.
const OPEN_RATE: f64 = 250.0;
/// Share of the measured time given to the open-loop phase.
const OPEN_SHARE: f64 = 0.5;
/// Samples in the strength-meter table.
const TABLE_SAMPLES: usize = 2_000;
/// Training passwords written to the breach store.
const STORE_TRAIN_PASSWORDS: usize = 2_000;
/// Every this many trace records, the record's passwords are breached.
const BREACHED_EVERY: usize = 4;
/// Requests each connection keeps in flight in the closed loop, so both
/// connections reach every batcher tick.
const PIPELINE: usize = 2;
/// Closed-loop throughput is the median over windows of this length.
const WINDOW: Duration = Duration::from_secs(1);
/// Latency charged to a failed request: the server's default deadline.
const FAILED_LATENCY_MS: f64 = 10_000.0;
/// `/healthz` probes in the traced run, and their spacing.
const PROBES: usize = 200;
const PROBE_GAP: Duration = Duration::from_millis(2);
/// Open-loop records sent before measuring.
const WARMUP_RECORDS: usize = 50;
/// Records scored directly through `FlowScorer` in the traced run.
const DIRECT_RECORDS: usize = 400;

/// A running server and the handles the gates check it against.
struct Served {
    server: Option<ServerHandle>,
    scorer: FlowScorer,
    store: DigestStore,
    io: Arc<IoStats>,
    trace: Trace,
    digest: u64,
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
    }
}

impl Served {
    fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("server runs until drop").addr()
    }

    fn metrics_text(&self) -> String {
        self.server
            .as_ref()
            .expect("server runs")
            .metrics()
            .render()
    }
}

/// The repository's traffic model (`TraceSynthProfile::default()`: its
/// endpoint mix and batch sizes) with independent arrivals (exponential
/// gaps, no back-to-back bursts) at `rate` requests per second.
fn profile(rate: f64) -> TraceSynthProfile {
    TraceSynthProfile {
        mean_gap_us: (1e6 / rate) as u32,
        burst_per_mille: 0,
        ..TraceSynthProfile::default()
    }
}

fn build(seed: u64, tmp: &std::path::Path, open_requests: usize) -> Served {
    let corpus = setup::corpus(seed);
    let flow = setup::trained_flow(&corpus, seed, nproc());
    let table = SampleTable::build(&flow, TABLE_SAMPLES, seed);
    let trace = Trace::synth(seed, open_requests, &profile(OPEN_RATE));

    let path: PathBuf = tmp.join("breached.pfd");
    let mut builder = DigestStoreBuilder::new(DigestConfig::default()).with_scratch_dir(tmp);
    let breached = trace
        .records
        .iter()
        .step_by(BREACHED_EVERY)
        .flat_map(TraceRecord::passwords);
    for password in corpus
        .train
        .iter()
        .take(STORE_TRAIN_PASSWORDS)
        .cloned()
        .chain(breached)
    {
        builder.add_password(&password).expect("store build");
    }
    builder.finish(&path).expect("store finish");
    let io = TimedStoreIo::new(Box::new(FileIo::open(&path).expect("store file opens")));
    let stats = io.stats();
    stats.set_enabled(false);
    let served_store = DigestStore::open_with_io(&path, Box::new(io)).expect("store opens");
    let store = DigestStore::open(&path).expect("store opens");

    let registry = Arc::new(ModelRegistry::new());
    registry.insert(ServedModel::from_flow("default", &flow, 1, Some(table)));
    let config = ServerConfig {
        digest: Some(Arc::new(served_store)),
        ..ServerConfig::default()
    };
    let server = serve(config, registry).expect("bind an ephemeral loopback port");
    Served {
        server: Some(server),
        scorer: FlowScorer::new(&flow),
        store,
        io: stats,
        trace,
        digest: setup::weights_digest(&flow),
    }
}

/// One open-loop request as the client saw it.
struct Sample {
    index: usize,
    due: Duration,
    sent: Duration,
    done: Duration,
    status: u16,
    body: String,
}

/// Sends `records` at their due times over `conns`, one thread each.
fn open_loop(
    addr: SocketAddr,
    records: &[TraceRecord],
    conns: Vec<Connection>,
) -> (Vec<Sample>, Vec<Connection>) {
    let mut due = Vec::with_capacity(records.len());
    let mut acc = Duration::ZERO;
    for record in records {
        acc += Duration::from_micros(u64::from(record.gap_us));
        due.push(acc);
    }
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let results: Vec<(Vec<Sample>, Connection)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .map(|mut conn| {
                let (next, due) = (&next, &due);
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(record) = records.get(index) else {
                            break;
                        };
                        let wait = due[index].saturating_sub(start.elapsed());
                        std::thread::sleep(wait);
                        let sent = start.elapsed();
                        let (status, body) = send(&mut conn, addr, record);
                        samples.push(Sample {
                            index,
                            due: due[index],
                            sent,
                            done: start.elapsed(),
                            status,
                            body,
                        });
                    }
                    (samples, conn)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut samples = Vec::new();
    let mut conns = Vec::new();
    for (s, c) in results {
        samples.extend(s);
        conns.push(c);
    }
    samples.sort_unstable_by_key(|s| s.index);
    (samples, conns)
}

/// Sends one record; connection errors reconnect and count as status 0.
fn send(conn: &mut Connection, addr: SocketAddr, record: &TraceRecord) -> (u16, String) {
    match conn.request("POST", record.endpoint.path(), Some(&record.body())) {
        Ok(response) => (response.status, response.text()),
        Err(_) => {
            if let Ok(fresh) = Connection::open(addr, Duration::from_secs(30)) {
                *conn = fresh;
            }
            (0, String::new())
        }
    }
}

/// Closed loop: each connection keeps [`PIPELINE`] requests outstanding
/// (HTTP/1.1 pipelining) and sends the next one as soon as an answer
/// arrives, until `secs` have passed. Returns the completion time and
/// password count of every answered request, plus the samples for the
/// gates.
fn closed_loop(
    addr: SocketAddr,
    records: &[TraceRecord],
    conns: Vec<Connection>,
    secs: f64,
) -> (Vec<(Duration, usize)>, Vec<Sample>, Vec<Connection>) {
    let start = Instant::now();
    let clients = conns.len().max(1);
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    let mut samples = Vec::new();
                    let mut inflight: VecDeque<(usize, Duration)> = VecDeque::new();
                    let mut next = c;
                    loop {
                        while inflight.len() < PIPELINE && start.elapsed().as_secs_f64() < secs {
                            let index = next % records.len();
                            let record = &records[index];
                            let sent = start.elapsed();
                            if conn
                                .send("POST", record.endpoint.path(), Some(&record.body()))
                                .is_err()
                            {
                                break;
                            }
                            inflight.push_back((index, sent));
                            next += clients;
                        }
                        let Some((index, sent)) = inflight.pop_front() else {
                            break;
                        };
                        let (status, body) = match conn.read_response() {
                            Ok(response) => (response.status, response.text()),
                            Err(_) => (0, String::new()),
                        };
                        let at = start.elapsed();
                        if status == 200 {
                            done.push((at, usize::from(records[index].batch.max(1))));
                        }
                        samples.push(Sample {
                            index,
                            due: sent,
                            sent,
                            done: at,
                            status,
                            body,
                        });
                        if status == 0 {
                            // The connection broke: what was still in flight
                            // is lost with it.
                            for (index, sent) in inflight.drain(..) {
                                samples.push(Sample {
                                    index,
                                    due: sent,
                                    sent,
                                    done: at,
                                    status,
                                    body: String::new(),
                                });
                            }
                            match Connection::open(addr, Duration::from_secs(30)) {
                                Ok(fresh) => conn = fresh,
                                Err(_) => break,
                            }
                        }
                    }
                    (done, samples, conn)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut done = Vec::new();
    let mut samples = Vec::new();
    let mut conns = Vec::new();
    for (d, s, c) in results {
        done.extend(d);
        samples.extend(s);
        conns.push(c);
    }
    (done, samples, conns)
}

/// Checks every answer against direct scoring and the store; returns the
/// number of failed requests.
fn verify(
    name: &str,
    served: &Served,
    samples: &[Sample],
    expected: &mut HashMap<usize, Vec<Option<f64>>>,
    report: &mut Report,
) -> u64 {
    let mut failed = 0;
    for sample in samples {
        let record = &served.trace.records[sample.index];
        if sample.status != 200 {
            failed += 1;
            continue;
        }
        let passwords = record.passwords();
        let scores = expected
            .entry(sample.index)
            .or_insert_with(|| served.scorer.log_probs(&passwords));
        let parsed = json::parse(&sample.body).ok();
        let results = parsed
            .as_ref()
            .and_then(|j| j.get("results"))
            .and_then(|r| r.as_arr());
        let Some(results) = results.filter(|r| r.len() == passwords.len()) else {
            report.gate(false, || {
                format!("{name}: record {} answer is malformed", sample.index)
            });
            continue;
        };
        for ((password, item), score) in passwords.iter().zip(results).zip(scores.iter()) {
            let bits = item.get("log_prob_bits").and_then(|b| b.as_str());
            let want = score.map(|lp| format!("{:016x}", lp.to_bits()));
            report.gate(bits == want.as_deref(), || {
                format!(
                    "{name}: record {} password {password:?} served log-prob bits {bits:?}, \
                     FlowScorer gives {want:?}",
                    sample.index
                )
            });
            if record.endpoint == Endpoint::Screen {
                let direct = served
                    .store
                    .contains_password(password)
                    .ok()
                    .map(|h| h.is_some());
                let verdict = match item.get("breached") {
                    Some(json::Json::Bool(b)) => Some(*b),
                    _ => None,
                };
                report.gate(verdict.is_some() && verdict == direct, || {
                    format!(
                        "{name}: record {} password {password:?} screened {verdict:?}, \
                         DigestStore::contains_password gives {direct:?}",
                        sample.index
                    )
                });
            }
        }
    }
    failed
}

/// A counter from the `/metrics` text exposition.
fn metric(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|v| v.strip_prefix(' ')))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Results of one open-loop plus closed-loop pass.
struct Pass {
    latency_ms: Vec<f64>,
    by_endpoint: HashMap<&'static str, Vec<f64>>,
    late_ms: Vec<f64>,
    window_rates: Vec<f64>,
    ticks: f64,
    batch_rows: f64,
}

fn run_pass(
    name: &str,
    served: &Served,
    open_records: usize,
    closed_secs: f64,
    report: &mut Report,
) -> Pass {
    let addr = served.addr();
    let clients = 2.min(nproc()).max(1);
    let conns: Vec<Connection> = (0..clients)
        .map(|_| Connection::open(addr, Duration::from_secs(30)).expect("connect to loopback"))
        .collect();
    let before = served.metrics_text();

    let records = &served.trace.records;
    let (open, conns) = open_loop(addr, &records[..open_records.min(records.len())], conns);
    let (done, closed, _conns) = closed_loop(addr, records, conns, closed_secs);

    let after = served.metrics_text();
    let mut expected = HashMap::new();
    let attempted = (open.len() + closed.len()) as u64;
    report.attempted += attempted;
    report.failed += verify(name, served, &open, &mut expected, report);
    report.failed += verify(name, served, &closed, &mut expected, report);

    let mut by_endpoint: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut latency_ms = Vec::new();
    for sample in &open {
        let ms = if sample.status == 200 {
            (sample.done - sample.due).as_secs_f64() * 1e3
        } else {
            FAILED_LATENCY_MS
        };
        latency_ms.push(ms);
        let endpoint = served.trace.records[sample.index].endpoint.path();
        by_endpoint.entry(endpoint).or_default().push(ms);
    }
    let late_ms = open
        .iter()
        .map(|s| (s.sent - s.due).as_secs_f64() * 1e3)
        .collect();

    let end = done.iter().map(|(t, _)| *t).max().unwrap_or_default();
    let windows = (end.as_secs_f64() / WINDOW.as_secs_f64()).floor() as usize;
    let mut counts = vec![0usize; windows];
    for (t, n) in &done {
        if let Some(c) = counts.get_mut((t.as_secs_f64() / WINDOW.as_secs_f64()) as usize) {
            *c += n;
        }
    }
    let window_rates = counts
        .iter()
        .map(|&n| n as f64 / WINDOW.as_secs_f64())
        .collect();

    let delta = |m: &str| metric(&after, m) - metric(&before, m);
    Pass {
        latency_ms,
        by_endpoint,
        late_ms,
        window_rates,
        ticks: delta("passflow_batch_size_count"),
        batch_rows: delta("passflow_batch_size_sum"),
    }
}

/// Runs the workload and fills `report`.
pub fn run(args: &Args, report: &mut Report) {
    let name = args.workload.as_str();
    let open_requests = (args.seconds * OPEN_SHARE * OPEN_RATE).ceil() as usize;
    let served = set_up(
        report,
        args,
        |seed| build(seed, &args.tmp, open_requests),
        |served| served.digest,
    );

    // Warm-up: connection set-up, first batcher ticks, first store pages.
    let _ = run_pass(name, &served, WARMUP_RECORDS, 0.5, &mut Report::default());
    // The traced run measures an untraced and a traced pass of half the
    // length each.
    let pass_secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let pass_requests = (pass_secs * OPEN_SHARE * OPEN_RATE).ceil() as usize;
    let closed_secs = pass_secs * (1.0 - OPEN_SHARE);

    let cpu = CpuWindow::start();
    let untraced = run_pass(name, &served, pass_requests, closed_secs, report);
    let traced = args.trace.then(|| {
        served.io.set_enabled(true);
        let metrics = served
            .server
            .as_ref()
            .map(|s| s.metrics())
            .expect("server runs");
        let (shed0, expired0) = (metrics.shed_total(), metrics.deadline_expired_total());
        let pass = run_pass(name, &served, pass_requests, closed_secs, report);
        served.io.set_enabled(false);
        let counters = (
            (metrics.shed_total() - shed0) as f64,
            (metrics.deadline_expired_total() - expired0) as f64,
        );
        (pass, counters)
    });
    let cpu_share = cpu.share();

    let p50 = median(&untraced.latency_ms);
    let max_rate = median(&untraced.window_rates);
    report.set("items_per_s", max_rate);
    report.set("op_p50_ms", p50);
    report.named("serve_p50_ms", p50);
    report.named("serve_p99_ms", quantile(&untraced.latency_ms, 0.99));
    report.named("serve_max_passwords_per_s", max_rate);
    eprintln!(
        "{name}: {} open-loop requests at {OPEN_RATE} req/s; closed-loop passwords/s per \
         window {:.0?}",
        untraced.latency_ms.len(),
        untraced.window_rates
    );

    if let Some((pass, (shed, expired))) = traced {
        let endpoint_p50 = |path: &str| pass.by_endpoint.get(path).map_or(0.0, |v| median(v));
        report.set("serve.p99_ms", quantile(&pass.latency_ms, 0.99));
        report.set("serve.score_p50_ms", endpoint_p50("/v1/score"));
        report.set("serve.logprob_p50_ms", endpoint_p50("/v1/logprob"));
        report.set("serve.screen_p50_ms", endpoint_p50("/v1/screen"));
        report.set("serve.generator_late_p99_ms", quantile(&pass.late_ms, 0.99));
        report.set("serve.ticks", pass.ticks);
        report.set(
            "serve.batch_rows_mean",
            pass.batch_rows / pass.ticks.max(1.0),
        );
        report.set("serve.shed", shed);
        report.set("serve.deadline_expired", expired);
        report.set("store.read_s", served.io.read_secs());
        report.set("store.reads", served.io.reads() as f64);
        let rtt = healthz_rtt_p50(served.addr());
        let scorer_us = scorer_us_per_pw(&served);
        report.set("serve.http_rtt_p50_ms", rtt);
        report.set("strength.scorer_us_per_pw", scorer_us);
        let traced_p50 = median(&pass.latency_ms);
        let tick_ms = scorer_us * (pass.batch_rows / pass.ticks.max(1.0)) * 1e-3;
        println!(
            "{name}: traced open-loop p50 {traced_p50:.3} ms = healthz round trip {rtt:.3} ms + \
             scoring {tick_ms:.3} ms per tick + batcher wait, store reads and queueing {:.3} ms",
            (traced_p50 - rtt - tick_ms).max(0.0)
        );
        report.set(
            "trace.items_per_s_ratio",
            median(&pass.window_rates) / max_rate,
        );
        report.set("trace.op_p50_ms_ratio", traced_p50 / p50);
        report.set("proc.cpu_share", cpu_share);
    }
}

/// Median round trip of a low-rate `/healthz` probe on one connection.
fn healthz_rtt_p50(addr: SocketAddr) -> f64 {
    let Ok(mut conn) = Connection::open(addr, Duration::from_secs(30)) else {
        return 0.0;
    };
    let mut rtts = Vec::with_capacity(PROBES);
    for _ in 0..PROBES {
        let t0 = Instant::now();
        if conn
            .request("GET", "/healthz", None)
            .is_ok_and(|r| r.status == 200)
        {
            rtts.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        std::thread::sleep(PROBE_GAP);
    }
    median(&rtts)
}

/// Direct `FlowScorer` cost per password on the trace's batch sizes, with
/// one reused workspace as the batcher keeps.
fn scorer_us_per_pw(served: &Served) -> f64 {
    let mut ws = FlowWorkspace::new();
    let mut out = Vec::new();
    let mut secs = 0.0;
    let mut passwords_scored = 0usize;
    for record in served.trace.records.iter().take(DIRECT_RECORDS) {
        let passwords = record.passwords();
        let t0 = Instant::now();
        served.scorer.log_probs_with(&passwords, &mut ws, &mut out);
        secs += t0.elapsed().as_secs_f64();
        passwords_scored += passwords.len();
    }
    secs * 1e6 / passwords_scored.max(1) as f64
}
