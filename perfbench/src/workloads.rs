//! The four benchmark workloads. Each builds its world from the seed,
//! runs the simulated phase, checks the outputs and returns one [`Rep`].
//!
//! | workload     | shape                                             | layers doing the work                  |
//! |--------------|---------------------------------------------------|----------------------------------------|
//! | `population` | all endsystems join, one metadata cycle, one SUM  | overlay join, engine, metadata         |
//! | `storm`      | joined population, 100 queries in one burst       | dissemination, results, storm, store   |
//! | `churn`      | Gnutella-like churn, 2% loss, four queries        | overlay maintenance, metadata, engine  |
//! | `federated`  | `population` shape on the partitioned executor    | `sim::exec` windows and barriers       |

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use seaweed_availability::GnutellaConfig;
use seaweed_core::{
    ChaosOracle, DataProvider, FedCtl, FedSchedule, FedShard, HedgeConfig, LiveTables, Precomputed,
    QueryTimeline, Seaweed, SeaweedConfig, SeaweedEngine, SeaweedMsg, SeaweedStats, StormConfig,
    Submission,
};
use seaweed_overlay::{Overlay, OverlayConfig, OverlayMsg, OverlayStats};
use seaweed_sim::exec::{partition_seed, run_partitioned, ExecConfig, ExecKind};
use seaweed_sim::{
    BandwidthReport, CorpNetTopology, Engine, Event, NodeIdx, Outbox, PartitionApp, SimConfig,
    SubTopology, Topology,
};
use seaweed_store::{BoundQuery, ColumnDef, DataType, Query, Schema, Table, Value};
use seaweed_types::{Duration, Time};
use seaweed_workload::{flow_schema, AnemoneConfig};

use crate::spans::{self, classify, now_ns, Aggs, Layer, Timed};

/// Input sizes. `Bench` is what the benchmark measures; `Tiny` is the
/// smoke-test size that exercises the same code paths in well under a
/// second.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Bench,
    Tiny,
}

impl Size {
    pub fn parse(s: &str) -> Option<Size> {
        match s {
            "bench" => Some(Size::Bench),
            "tiny" => Some(Size::Tiny),
            _ => None,
        }
    }

    fn pick<T>(self, bench: T, tiny: T) -> T {
        match self {
            Size::Bench => bench,
            Size::Tiny => tiny,
        }
    }
}

/// The outcome of one repetition of one workload, in its own process.
#[derive(Debug, Default)]
pub struct Rep {
    pub setup_s: f64,
    pub run_s: f64,
    pub setup_rss_mb: f64,
    pub peak_rss_mb: f64,
    pub queries: u64,
    pub failed: u64,
    /// Wrong answers. Empty on a correct run.
    pub violations: Vec<String>,
    /// `ChaosOracle` violations at the end of the run. Every query of a
    /// run that ends with one counts as failed.
    pub oracle: Vec<String>,
    /// Simulation outputs that must repeat exactly for a seed: work
    /// counters and the simulated end-to-end metrics.
    pub det: BTreeMap<String, f64>,
    /// Per-layer figures; host times are present only when traced.
    pub layer: BTreeMap<String, f64>,
}

impl Rep {
    fn det(&mut self, k: &str, v: f64) {
        self.det.insert(k.to_owned(), v);
    }

    fn layer(&mut self, k: &str, v: f64) {
        self.layer.insert(k.to_owned(), v);
    }
}

/// Threads the simulated phase of workload `name` runs on: the
/// executor's workers on `federated` (as many as the host has cores, at
/// most one per partition), one elsewhere.
pub fn threads(name: &str, size: Size) -> usize {
    if name != "federated" {
        return 1;
    }
    // lint:allow(D004): sizes the executor's worker pool; the threads are sim::exec's
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    cores.min(federated_size(size).1)
}

/// Endsystems and partitions of `federated`.
fn federated_size(size: Size) -> (usize, usize) {
    size.pick((4_000, 4), (300, 3))
}

/// Runs workload `name` once.
pub fn run(name: &str, seed: u64, size: Size, exec: ExecKind) -> Result<Rep, String> {
    let mut rep = match name {
        "population" => population(seed, size),
        "storm" => storm(seed, size),
        "churn" => churn(seed, size),
        "federated" => federated(seed, size, exec),
        other => return Err(format!("unknown workload {other:?}")),
    };
    rep.peak_rss_mb = proc_status_mb("VmHWM:");
    if !rep.oracle.is_empty() {
        rep.failed = rep.queries;
    }
    Ok(rep)
}

/// A `/proc/self/status` field in MB (0 where `/proc` is absent).
fn proc_status_mb(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn secs(s: u64) -> Time {
    Time(s * 1_000_000)
}

fn ns_to_s(ns: u64) -> f64 {
    ns as f64 / 1e9
}

// ------------------------------------------------------------ set-up

fn t_schema() -> Schema {
    Schema::new(
        "T",
        vec![
            ColumnDef::new("flag", DataType::Int, true),
            ColumnDef::new("v", DataType::Int, true),
        ],
    )
}

/// `rows` rows per endsystem, every row matching `flag = 1`; `v` is
/// `node + r + 1`. Returns the schema, the fragments and the exact SUM.
fn int_tables(n: usize, rows: usize) -> (Schema, Vec<Table>, f64) {
    let schema = t_schema();
    let mut sum = 0.0;
    let tables = (0..n)
        .map(|node| {
            let mut t = Table::new(schema.clone());
            for r in 0..rows {
                let v = (node + r) as i64 + 1;
                sum += v as f64;
                t.insert(vec![Value::Int(1), Value::Int(v)])
                    .expect("generated row fits the schema");
            }
            t
        })
        .collect();
    (schema, tables, sum)
}

/// Everything one single-engine workload runs on.
struct World<P: DataProvider> {
    eng: SeaweedEngine,
    sw: Seaweed<Timed<P>>,
    /// Host time spent building the topology.
    topo_ns: u64,
}

/// Builds topology, engine, overlay and protocol over `provider`.
fn build_world<P: DataProvider>(
    n: usize,
    seed: u64,
    provider: P,
    loss_rate: f64,
    seaweed: SeaweedConfig,
) -> World<P> {
    let t = now_ns();
    let topo = CorpNetTopology::new(n, seed);
    let topo_ns = now_ns() - t;
    let eng: SeaweedEngine = Engine::new(
        Box::new(topo),
        SimConfig {
            seed,
            loss_rate,
            ..SimConfig::default()
        },
    );
    let overlay = Overlay::new(
        Overlay::random_ids(n, seed),
        OverlayConfig {
            seed,
            ..Default::default()
        },
    );
    let sw = Seaweed::new(overlay, Timed(provider), seaweed);
    World { eng, sw, topo_ns }
}

fn join_all(eng: &mut SeaweedEngine, n: usize) {
    let step = (60_000_000 / n as u64).max(1);
    for i in 0..n {
        eng.schedule_up(Time(1 + i as u64 * step), NodeIdx(i as u32));
    }
}

fn finish_setup(rep: &mut Rep, t0: u64, data_ns: u64, topo_ns: u64) -> u64 {
    let t = now_ns();
    rep.setup_s = ns_to_s(t - t0);
    rep.setup_rss_mb = proc_status_mb("VmRSS:");
    rep.layer("data.build_s", ns_to_s(data_ns));
    rep.layer("topology.build_s", ns_to_s(topo_ns));
    rep.layer("mem.setup_rss_mb", rep.setup_rss_mb);
    t
}

// ------------------------------------------------------------ running

/// Runs the event loop to `horizon`. Untraced, this is exactly
/// `Seaweed::run_until` plus an event count; traced, every pop and every
/// dispatch is a span.
fn drive<P: DataProvider>(
    sw: &mut Seaweed<P>,
    eng: &mut SeaweedEngine,
    horizon: Time,
    events: &mut u64,
) {
    if !spans::tracing() {
        while let Some((_, ev)) = eng.next_event_before(horizon) {
            *events += 1;
            sw.dispatch(eng, ev);
        }
        return;
    }
    let mut local = spans::Local::new();
    let mut t = now_ns();
    loop {
        let next = eng.next_event_before(horizon);
        let popped = now_ns();
        local.record(Layer::EngineNext, t, popped);
        let Some((_, ev)) = next else { break };
        *events += 1;
        let layer = classify(&ev);
        sw.dispatch(eng, ev);
        t = now_ns();
        local.record(layer, popped, t);
    }
}

// ------------------------------------------------------ query delay

/// Pooled delay distribution over every (query, matching row): a row's
/// delay runs from the query's injection (storm: admission) to the
/// result fragment that folded it into the origin's answer. Rows not in
/// by the horizon are censored at the horizon.
#[derive(Default)]
struct Delays {
    /// `(delay µs, rows)`.
    samples: Vec<(u64, u64)>,
    censored: u64,
}

impl Delays {
    fn add(&mut self, tl: &QueryTimeline, matching: u64, horizon: Time) {
        let mut prev = 0u64;
        for &(at, rows) in &tl.fragments {
            if rows > prev {
                self.samples
                    .push((at.saturating_since(tl.injected).as_micros(), rows - prev));
                prev = rows;
            }
        }
        let missing = matching.saturating_sub(prev);
        if missing > 0 {
            self.censored += missing;
            self.samples
                .push((horizon.saturating_since(tl.injected).as_micros(), missing));
        }
    }

    /// Smallest delay (s) with at least a share `p` of samples at or below.
    fn quantile(&self, p: f64) -> f64 {
        let mut s = self.samples.clone();
        s.sort_unstable();
        let total: u64 = s.iter().map(|&(_, w)| w).sum();
        let need = (p * total as f64).ceil().max(1.0) as u64;
        let mut cum = 0;
        for (d, w) in s {
            cum += w;
            if cum >= need {
                return d as f64 / 1e6;
            }
        }
        0.0
    }

    fn record(&self, rep: &mut Rep) {
        let n: u64 = self.samples.iter().map(|&(_, w)| w).sum();
        rep.det("query_delay_p50_s", self.quantile(0.5));
        rep.det("query_delay_p90_s", self.quantile(0.9));
        rep.det("delay.samples", n as f64);
        rep.det("delay.censored", self.censored as f64);
    }
}

// ------------------------------------------------------------ reports

/// Engine, bandwidth, overlay and protocol figures common to every
/// workload (summed over shards for `federated`).
#[derive(Default)]
struct Totals {
    events: u64,
    messages: u64,
    drops: u64,
    tx: [u64; 3],
    online_us: u64,
    overlay: OverlayStats,
    app: SeaweedStats,
    remote_msgs: u64,
}

impl Totals {
    fn add_engine(&mut self, eng: SeaweedEngine) {
        self.messages += eng.messages_sent;
        self.drops += eng.drop_stats().total();
        self.remote_msgs += eng.app_event_count("sim.remote_tx");
        let report: BandwidthReport = eng.finish();
        for c in 0..3 {
            self.tx[c] += report.total_tx[c];
        }
        self.online_us += report
            .tx_hours
            .iter()
            .map(|h| h.online_node_us)
            .sum::<u64>();
    }

    fn add_stats(&mut self, o: &OverlayStats, a: &SeaweedStats) {
        let (t, s) = (&mut self.overlay, &mut self.app);
        t.join_retries += o.join_retries;
        t.routed_messages += o.routed_messages;
        t.delivered_messages += o.delivered_messages;
        t.total_hops += o.total_hops;
        t.leafset_repairs += o.leafset_repairs;
        s.meta_pushes += a.meta_pushes;
        s.meta_repairs += a.meta_repairs;
        s.disseminate_msgs += a.disseminate_msgs;
        s.dissem_reissues += a.dissem_reissues;
        s.dissem_give_ups += a.dissem_give_ups;
        s.result_submissions += a.result_submissions;
        s.result_retries += a.result_retries;
        s.vertex_replications += a.vertex_replications;
        s.storm_admitted += a.storm_admitted;
        s.storm_queued += a.storm_queued;
        s.storm_dropped += a.storm_dropped;
        s.scan_quanta += a.scan_quanta;
        s.shared_scan_batches += a.shared_scan_batches;
    }

    fn record(&self, rep: &mut Rep) {
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                1.0
            } else {
                num as f64 / den as f64
            }
        };
        let (o, a) = (&self.overlay, &self.app);
        let total: u64 = self.tx.iter().sum();
        rep.det(
            "overhead_Bps_per_endsystem",
            total as f64 / (self.online_us as f64 / 1e6).max(1e-9),
        );
        for (k, v) in [
            ("engine.events", self.events),
            ("engine.messages", self.messages),
            ("engine.drops", self.drops),
            ("bw.overlay_bytes", self.tx[0]),
            ("bw.maintenance_bytes", self.tx[1]),
            ("bw.query_bytes", self.tx[2]),
            ("overlay.join_retries", o.join_retries),
            ("overlay.leafset_repairs", o.leafset_repairs),
            ("overlay.routed_messages", o.routed_messages),
            ("metadata.pushes", a.meta_pushes),
            ("metadata.repairs", a.meta_repairs),
            ("disseminate.msgs", a.disseminate_msgs),
            ("disseminate.reissues", a.dissem_reissues),
            ("disseminate.give_ups", a.dissem_give_ups),
            ("results.submissions", a.result_submissions),
            ("results.retries", a.result_retries),
            ("results.vertex_replications", a.vertex_replications),
            ("storm.admitted", a.storm_admitted),
            ("storm.queued", a.storm_queued),
            ("storm.dropped", a.storm_dropped),
            ("storm.scan_quanta", a.scan_quanta),
            ("storm.shared_scan_batches", a.shared_scan_batches),
            ("exec.remote_msgs", self.remote_msgs),
        ] {
            rep.det(k, v as f64);
        }
        rep.det(
            "engine.delivered_ratio",
            ratio(self.messages.saturating_sub(self.drops), self.messages),
        );
        rep.det(
            "overlay.route.hops_mean",
            if o.delivered_messages == 0 {
                0.0
            } else {
                o.total_hops as f64 / o.delivered_messages as f64
            },
        );
        rep.det(
            "disseminate.useful_ratio",
            ratio(a.disseminate_msgs, a.disseminate_msgs + a.dissem_reissues),
        );
        rep.det(
            "results.useful_ratio",
            ratio(
                a.result_submissions,
                a.result_submissions + a.result_retries,
            ),
        );
    }
}

/// Per-layer span figures: event counts and times per dispatch layer.
/// Returns the time the top-level spans cover, in ns.
fn record_spans(rep: &mut Rep, aggs: &Aggs) -> u64 {
    let mut top = 0;
    for layer in spans::LAYERS {
        let a = aggs[layer as usize];
        let name = layer.name();
        match layer {
            Layer::EngineNext => rep.layer("engine.next_event_s", ns_to_s(a.total_ns)),
            Layer::StoreExec => {
                rep.layer("store.exec_calls", a.count as f64);
                rep.layer("store.exec_s", ns_to_s(a.total_ns));
            }
            Layer::StoreEstimate => rep.layer("store.estimate_s", ns_to_s(a.total_ns)),
            Layer::Inject => rep.layer("store.inject_s", ns_to_s(a.total_ns)),
            Layer::ExecCtl => {}
            _ => {
                rep.layer(&format!("{name}.events"), a.count as f64);
                // Self time: store calls nested in a dispatch are charged
                // to the store, not to the dispatching layer.
                rep.layer(&format!("{name}.dispatch_s"), ns_to_s(a.self_ns));
            }
        }
        if layer.top_level() {
            top += a.total_ns;
        }
    }
    top
}

/// Spans and the share of the timed phase (`run_ns` on each of
/// `workers` threads) that no span accounts for.
fn record_trace(rep: &mut Rep, aggs: &Aggs, covered_ns: u64, run_ns: u64, workers: usize) {
    if !spans::tracing() {
        return;
    }
    let top = record_spans(rep, aggs);
    let covered = covered_ns.max(top) as f64;
    rep.layer(
        "trace.unattributed_frac",
        1.0 - covered / (run_ns as f64 * workers as f64).max(1.0),
    );
}

/// Closes a single-engine run: the oracle's verdict on the final state,
/// then the engine, overlay and protocol totals.
fn finish_run<P: DataProvider>(
    rep: &mut Rep,
    population_rows: u64,
    sw: &Seaweed<P>,
    eng: SeaweedEngine,
    mut totals: Totals,
) {
    rep.oracle
        .extend(ChaosOracle::new(population_rows).check(sw, &eng));
    totals.add_stats(&sw.overlay.stats, &sw.stats);
    totals.add_engine(eng);
    totals.record(rep);
}

// ---------------------------------------------------------- workloads

const SUM_SQL: &str = "SELECT SUM(v) FROM T WHERE flag = 1";

/// Every endsystem joins within the first simulated minute, one
/// metadata-push cycle runs, then one population-wide SUM gets half an
/// hour. Target: completeness 1.0 with the exact SUM.
fn population(seed: u64, size: Size) -> Rep {
    let n = size.pick(4_000, 200);
    let mut rep = Rep::default();
    let t0 = now_ns();
    let (schema, tables, sum) = int_tables(n, 1);
    let provider = LiveTables::new(tables);
    let data_ns = now_ns() - t0;
    let World {
        mut eng,
        mut sw,
        topo_ns,
    } = build_world(
        n,
        seed,
        provider,
        0.0,
        SeaweedConfig {
            seed,
            ..Default::default()
        },
    );
    join_all(&mut eng, n);
    let run0 = finish_setup(&mut rep, t0, data_ns, topo_ns);

    let mut totals = Totals::default();
    drive(&mut sw, &mut eng, secs(900), &mut totals.events);
    let h = spans::span(Layer::Inject, || {
        sw.inject_query(
            &mut eng,
            NodeIdx(0),
            SUM_SQL,
            Duration::from_hours(1),
            &schema,
        )
    })
    .expect("the population query parses and binds");
    let horizon = secs(1800);
    drive(&mut sw, &mut eng, horizon, &mut totals.events);
    let run_ns = now_ns() - run0;
    rep.run_s = ns_to_s(run_ns);
    record_trace(&mut rep, &spans::take(), 0, run_ns, 1);

    let q = sw.query(h);
    rep.queries = 1;
    let complete = q.rows() == n as u64;
    if !complete {
        rep.failed = 1;
    } else if q.latest.and_then(|a| a.finish()) != Some(sum) {
        rep.violations.push(format!(
            "SUM {:?} != {sum}",
            q.latest.and_then(|a| a.finish())
        ));
    }
    let mut delays = Delays::default();
    delays.add(sw.timeline(h), n as u64, horizon);
    delays.record(&mut rep);
    rep.det("rows", q.rows() as f64);
    finish_run(&mut rep, n as u64, &sw, eng, totals);
    rep
}

/// A joined population, then `k` distinct one-shot SUM queries submitted
/// in one burst under storm admission (64 in flight, the rest queued).
/// Four rows per endsystem and two-row scan quanta engage the fair scan
/// scheduler and shared scans. Completed queries are retired so queued
/// ones are admitted. Target: every query complete with the exact SUM
/// within the storm horizon.
fn storm(seed: u64, size: Size) -> Rep {
    const ROWS: usize = 4;
    const T0: u64 = 900;
    const SLICE: u64 = 10;
    let (n, k, budget_s) = size.pick((400, 100, 7_200), (100, 12, 7_200));
    let mut rep = Rep::default();
    let t0 = now_ns();
    let (schema, tables, sum) = int_tables(n, ROWS);
    let provider = LiveTables::new(tables);
    let data_ns = now_ns() - t0;
    let storm = StormConfig {
        max_in_flight: size.pick(64, 8),
        quantum_rows: 2,
        quantum: Duration::from_millis(20),
        max_batch: 8,
    };
    let World {
        mut eng,
        mut sw,
        topo_ns,
    } = build_world(
        n,
        seed,
        provider,
        0.0,
        SeaweedConfig {
            seed,
            storm: Some(storm),
            ..Default::default()
        },
    );
    join_all(&mut eng, n);
    let run0 = finish_setup(&mut rep, t0, data_ns, topo_ns);

    let matching = (n * ROWS) as u64;
    let mut totals = Totals::default();
    drive(&mut sw, &mut eng, secs(T0), &mut totals.events);
    let ttl = Duration::from_hours(40);
    let mut live: Vec<u32> = Vec::new();
    let mut queued = 0usize;
    for i in 0..k {
        let sql = format!("SELECT SUM(v) FROM T WHERE flag < {}", 2 + i);
        let origin = NodeIdx((i % n) as u32);
        match spans::span(Layer::Inject, || {
            sw.submit_query(&mut eng, origin, &sql, ttl, &schema)
        })
        .expect("storm queries parse and bind")
        {
            Submission::Admitted(h) => live.push(h),
            Submission::Queued(_) => queued += 1,
        }
    }

    let mut delays = Delays::default();
    let mut done = 0usize;
    let mut wrong = 0usize;
    let mut horizon = T0;
    while done < k && horizon < T0 + budget_s {
        horizon += SLICE;
        drive(&mut sw, &mut eng, secs(horizon), &mut totals.events);
        let mut still = Vec::with_capacity(live.len());
        for h in live.drain(..) {
            let q = sw.query(h);
            if q.rows() >= matching {
                if q.latest.and_then(|a| a.finish()) != Some(sum) {
                    wrong += 1;
                }
                delays.add(sw.timeline(h), matching, secs(horizon));
                sw.retire_query(&mut eng, h);
                done += 1;
            } else {
                still.push(h);
            }
        }
        live = still;
        for (_, h) in sw.drain_admissions() {
            live.push(h);
            queued -= 1;
        }
    }
    let run_ns = now_ns() - run0;
    rep.run_s = ns_to_s(run_ns);
    record_trace(&mut rep, &spans::take(), 0, run_ns, 1);

    // Queries still running or still queued at the horizon missed the
    // target; their rows are censored.
    for &h in &live {
        delays.add(sw.timeline(h), matching, secs(horizon));
    }
    if queued > 0 {
        let waited = secs(horizon).saturating_since(secs(T0)).as_micros();
        delays.samples.push((waited, queued as u64 * matching));
        delays.censored += queued as u64 * matching;
    }
    rep.queries = k as u64;
    rep.failed = (k - done) as u64;
    if wrong > 0 {
        rep.violations
            .push(format!("{wrong} storm queries returned a wrong SUM"));
    }
    delays.record(&mut rep);
    rep.det("queries.completed", done as f64);
    finish_run(&mut rep, matching, &sw, eng, totals);
    rep
}

/// A Gnutella-like availability trace over tens of simulated hours with
/// 2% message loss and the Anemone flow data plane pre-computed per
/// endsystem. Sessions keep the paper's Gnutella departure rate (9.46e-5
/// per online endsystem per second); down spans average 30 minutes, so
/// about 85% of the endsystems are up at any time. Four aggregates over
/// HTTP flows are injected an eighth of the run (90 simulated minutes)
/// apart from a quarter of the way in, each from the available endsystem
/// whose session lasts longest, as an operator's workstation would. Tail
/// tolerance (hedged dissemination and the origin's re-kick watchdog) is
/// on, as a deployment facing loss would run it: without it, a lost
/// dissemination root leaves a query stuck. Target: 90% of each query's
/// matching rows by the horizon.
fn churn(seed: u64, size: Size) -> Rep {
    const TARGET: f64 = 0.9;
    const QUERIES: [&str; 4] = [
        "SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80",
        "SELECT COUNT(*) FROM Flow WHERE SrcPort=80",
        "SELECT MAX(Bytes) FROM Flow WHERE SrcPort=80",
        "SELECT AVG(Bytes) FROM Flow WHERE SrcPort=80",
    ];
    let (n, hours) = size.pick((1_200, 12), (60, 6));
    let mut rep = Rep::default();
    let t0 = now_ns();
    let trace = GnutellaConfig {
        down_mean: Duration::from_mins(30),
        ..GnutellaConfig::small(n, hours)
    }
    .generate(seed);
    let schema = flow_schema();
    let bound: Vec<BoundQuery> = QUERIES
        .iter()
        .map(|sql| Query::parse(sql).and_then(|q| q.bind(&schema, 0)))
        .collect::<Result<_, _>>()
        .expect("the churn queries parse and bind");
    // One week of flow records per endsystem.
    let anemone = AnemoneConfig {
        horizon: Duration::WEEK,
        ..AnemoneConfig::default()
    };
    let mut provider = Precomputed::new(n);
    let mut matching = [0u64; QUERIES.len()];
    for node in 0..n {
        let table = anemone.generate_flow_table(seed, node, &[]);
        provider
            .record_fragment(node, &table, &bound)
            .expect("the churn queries execute on generated fragments");
        for (m, b) in matching.iter_mut().zip(&bound) {
            *m += seaweed_store::exec::count_matching(b, &table);
        }
    }
    let data_ns = now_ns() - t0;
    let World {
        mut eng,
        mut sw,
        topo_ns,
    } = build_world(
        n,
        seed,
        provider,
        0.02,
        SeaweedConfig {
            seed,
            hedge: Some(HedgeConfig::default()),
            ..Default::default()
        },
    );
    trace.replay_into(&mut eng);
    let run0 = finish_setup(&mut rep, t0, data_ns, topo_ns);

    let mut totals = Totals::default();
    let mut handles = Vec::new();
    for (i, sql) in QUERIES.iter().enumerate() {
        // From a quarter of the way in, an eighth of the run apart.
        let at = Time::ZERO + Duration::from_mins(hours * 15 + hours * 15 / 2 * i as u64);
        drive(&mut sw, &mut eng, at, &mut totals.events);
        let now = eng.now();
        let origin = eng
            .up_nodes()
            .max_by_key(|o| {
                let session = trace
                    .intervals(o.idx())
                    .iter()
                    .find(|&&(a, b)| a <= now && now < b);
                (session.map_or(now, |&(_, end)| end), std::cmp::Reverse(o.0))
            })
            .expect("an endsystem is available at injection");
        let h = spans::span(Layer::Inject, || {
            sw.inject_query(&mut eng, origin, sql, Duration::from_days(30), &schema)
        })
        .expect("the churn query injects");
        handles.push(h);
    }
    let horizon = trace.horizon();
    drive(&mut sw, &mut eng, horizon, &mut totals.events);
    let run_ns = now_ns() - run0;
    rep.run_s = ns_to_s(run_ns);
    record_trace(&mut rep, &spans::take(), 0, run_ns, 1);

    let mut delays = Delays::default();
    let mut rows = 0;
    for (&h, &m) in handles.iter().zip(&matching) {
        let r = sw.query(h).rows();
        if (r as f64) < TARGET * m as f64 {
            rep.failed += 1;
        }
        if r > m {
            rep.violations
                .push(format!("query {h}: {r} rows > {m} matching"));
        }
        rows += r;
        delays.add(sw.timeline(h), m, horizon);
    }
    rep.queries = QUERIES.len() as u64;
    delays.record(&mut rep);
    rep.det("rows", rows as f64);
    rep.det("rows.matching", matching.iter().sum::<u64>() as f64);
    // The oracle takes one population bound; every query here matches the
    // same HTTP rows.
    finish_run(&mut rep, matching[0], &sw, eng, totals);
    rep
}

// ---------------------------------------------------------- federated

/// A [`FedShard`] whose dispatch and control handling are timed as
/// executor busy time when tracing is on.
struct TimedShard(FedShard);

impl PartitionApp<OverlayMsg<SeaweedMsg>> for TimedShard {
    type Ctl = FedCtl;

    fn dispatch(
        &mut self,
        eng: &mut SeaweedEngine,
        ev: Event<OverlayMsg<SeaweedMsg>>,
        out: &mut Outbox<OverlayMsg<SeaweedMsg>, FedCtl>,
    ) {
        if spans::tracing() {
            spans::span(classify(&ev), || self.0.dispatch(eng, ev, out));
        } else {
            self.0.dispatch(eng, ev, out);
        }
    }

    fn on_ctl(
        &mut self,
        eng: &mut SeaweedEngine,
        at: Time,
        from_part: u32,
        ctl: FedCtl,
        out: &mut Outbox<OverlayMsg<SeaweedMsg>, FedCtl>,
    ) {
        spans::span(Layer::ExecCtl, || {
            self.0.on_ctl(eng, at, from_part, ctl, out)
        });
    }
}

/// What one partition hands back at the end of the run.
struct ShardOut {
    n: u64,
    rows: u64,
    merged_rows: u64,
    reports: u32,
    sum: Option<f64>,
    events: u64,
    delays: Delays,
    oracle: Vec<String>,
    stats: (OverlayStats, SeaweedStats),
    totals: Totals,
}

/// One worker thread's timing: when its partitions were built, when its
/// window loop ended, and its span aggregates.
#[derive(Default)]
struct WorkerClock {
    loop_start: u64,
    loop_end: u64,
    /// The process's VmRSS when this worker had built its partitions.
    setup_rss_mb: f64,
    aggs: Aggs,
    /// Payload clones this worker took to cross partitions.
    cross_clones: u64,
}

thread_local! {
    static WORKER: std::cell::RefCell<Option<WorkerClock>> = const { std::cell::RefCell::new(None) };
}

/// The `population` shape run through `sim::exec` over
/// `core::federation`: endsystems are sharded by CorpNet site, each shard
/// runs its own overlay, all shards inject the same SUM at the same
/// instant and report row counts to partition 0. Runs in parallel mode
/// with as many workers as the host allows. Target: every shard complete
/// and the merged total equal to N.
fn federated(seed: u64, size: Size, kind: ExecKind) -> Rep {
    let (n, parts) = federated_size(size);
    let mut rep = Rep::default();
    let t0 = now_ns();
    let schema = t_schema();
    let global = Arc::new(CorpNetTopology::new(n, seed));
    let pmap = global
        .partition_map(parts)
        .unwrap_or_else(|| panic!("no {parts}-way site partition at N={n}"));
    let topo_ns = now_ns() - t0;
    let workers = threads("federated", size);
    let cfg = ExecConfig {
        kind,
        partitions: parts,
        workers,
    };
    let schedule = FedSchedule {
        inject_at: secs(900),
        report_at: secs(1750),
    };
    let horizon = secs(1800);
    let step = (60_000_000 / n as u64).max(1);
    let data_ns = Mutex::new(0u64);
    let clocks: Mutex<Vec<WorkerClock>> = Mutex::new(Vec::new());
    let trace = spans::tracing();

    let build = |p: usize| {
        spans::set_tracing(trace);
        let members = pmap.members[p].clone();
        let shard_seed = partition_seed(seed, p);
        let td = now_ns();
        let tables: Vec<Table> = members
            .iter()
            .map(|&g| {
                let mut t = Table::new(schema.clone());
                t.insert(vec![Value::Int(1), Value::Int(i64::from(g) + 1)])
                    .expect("generated row fits the schema");
                t
            })
            .collect();
        let provider = LiveTables::new(tables);
        *data_ns.lock().expect("set-up timer lock") += now_ns() - td;
        let mut eng: SeaweedEngine = Engine::new(
            Box::new(SubTopology::new(global.clone(), members.clone())),
            SimConfig {
                seed: shard_seed,
                ..SimConfig::default()
            },
        );
        let overlay = Overlay::new(
            Overlay::random_ids(members.len(), shard_seed),
            OverlayConfig {
                seed: shard_seed,
                ..Default::default()
            },
        );
        let sw = Seaweed::new(
            overlay,
            provider,
            SeaweedConfig {
                seed: shard_seed,
                ..Default::default()
            },
        );
        for (l, &g) in members.iter().enumerate() {
            eng.schedule_up(Time(1 + u64::from(g) * step), NodeIdx(l as u32));
        }
        let app = FedShard::new(
            sw,
            p as u32,
            parts as u32,
            pmap.lookahead,
            schedule,
            SUM_SQL,
            Duration::from_hours(1),
            schema.clone(),
        );
        // The worker's window loop starts after its last partition is
        // built.
        WORKER.with(|w| {
            let mut w = w.borrow_mut();
            let clock = w.get_or_insert_with(WorkerClock::default);
            clock.loop_start = now_ns();
            clock.setup_rss_mb = proc_status_mb("VmRSS:");
        });
        (eng, TimedShard(app))
    };
    let finish = |p: usize, eng: SeaweedEngine, app: TimedShard| {
        // The first finish on a worker marks the end of its window loop.
        if let Some(mut clock) = WORKER.with(|w| w.borrow_mut().take()) {
            clock.loop_end = now_ns();
            clock.aggs = spans::take();
            clock.cross_clones = seaweed_sim::payload_cross_partition_clones();
            clocks.lock().expect("worker clock lock").push(clock);
        }
        let app = app.0;
        let local_n = pmap.members[p].len() as u64;
        let mut out = ShardOut {
            n: local_n,
            rows: app.local_rows(),
            merged_rows: app.merged_rows,
            reports: app.reports_received,
            sum: app
                .handle
                .and_then(|h| app.sw.query(h).latest)
                .and_then(|a| a.finish()),
            events: app.events,
            delays: Delays::default(),
            oracle: ChaosOracle::new(local_n).check(&app.sw, &eng),
            stats: (app.sw.overlay.stats, app.sw.stats),
            totals: Totals::default(),
        };
        if let Some(h) = app.handle {
            out.delays.add(app.sw.timeline(h), local_n, horizon);
        }
        out.totals.add_engine(eng);
        out
    };

    let shards = run_partitioned(&cfg, pmap.lookahead, horizon, build, finish);
    let clocks = clocks.into_inner().expect("worker clock lock");
    let loop_start = clocks.iter().map(|c| c.loop_start).max().unwrap_or(t0);
    let loop_end = clocks
        .iter()
        .map(|c| c.loop_end)
        .max()
        .unwrap_or(loop_start);
    rep.setup_s = ns_to_s(loop_start - t0);
    rep.run_s = ns_to_s(loop_end - loop_start);
    rep.layer(
        "data.build_s",
        ns_to_s(data_ns.into_inner().expect("set-up timer lock")),
    );
    rep.layer("topology.build_s", ns_to_s(topo_ns));
    // VmRSS is process-wide: the last worker to finish building sees
    // every partition built.
    rep.setup_rss_mb = clocks.iter().map(|c| c.setup_rss_mb).fold(0.0, f64::max);
    rep.layer("mem.setup_rss_mb", rep.setup_rss_mb);
    if trace {
        let mut aggs = Aggs::default();
        let mut worker_wall = 0u64;
        for c in &clocks {
            spans::merge(&mut aggs, &c.aggs);
            worker_wall += c.loop_end - c.loop_start;
        }
        let busy = record_spans(&mut rep, &aggs);
        rep.layer("exec.workers", clocks.len() as f64);
        rep.layer("exec.busy_s", ns_to_s(busy));
        // Worker time outside dispatch: barriers, inbox merges, pops.
        rep.layer("exec.idle_s", ns_to_s(worker_wall.saturating_sub(busy)));
        // A worker's loop is covered by its busy and idle time; what it
        // spends outside the loop while others run is the residue.
        record_trace(
            &mut rep,
            &aggs,
            worker_wall,
            loop_end - loop_start,
            clocks.len(),
        );
    }
    rep.det(
        "exec.cross_clones",
        clocks.iter().map(|c| c.cross_clones).sum::<u64>() as f64,
    );

    let mut totals = Totals::default();
    let mut delays = Delays::default();
    let mut rows = 0u64;
    let mut sum = 0.0;
    let mut complete = true;
    for (p, s) in shards.into_iter().enumerate() {
        complete &= s.rows == s.n;
        rows += if p == 0 { s.rows + s.merged_rows } else { 0 };
        sum += s.sum.unwrap_or(0.0);
        if p == 0 && s.reports != parts as u32 - 1 {
            rep.violations.push(format!(
                "root got {} of {} shard reports",
                s.reports,
                parts - 1
            ));
        }
        rep.oracle
            .extend(s.oracle.into_iter().map(|v| format!("shard {p}: {v}")));
        delays.samples.extend(s.delays.samples);
        delays.censored += s.delays.censored;
        totals.events += s.events;
        totals.add_stats(&s.stats.0, &s.stats.1);
        let t = s.totals;
        totals.messages += t.messages;
        totals.drops += t.drops;
        totals.remote_msgs += t.remote_msgs;
        totals.online_us += t.online_us;
        for c in 0..3 {
            totals.tx[c] += t.tx[c];
        }
    }
    rep.queries = 1;
    let exact: f64 = (1..=n as u64).map(|v| v as f64).sum();
    if !complete || rows != n as u64 {
        rep.failed = 1;
    } else if sum != exact {
        rep.violations
            .push(format!("federated SUM {sum} != {exact}"));
    }
    rep.det("rows", rows as f64);
    delays.record(&mut rep);
    totals.record(&mut rep);
    rep
}
