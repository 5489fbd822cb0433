//! Scale: simulator cost along the endsystem-population ladder.
//!
//! Every point runs one end-to-end workload on the 298-router CorpNet
//! topology. All N endsystems come up inside the first simulated minute
//! (stagger 60 s / N, so per-endsystem work is N-independent), 15 min
//! cover the joins plus one metadata-push cycle, and one
//! full-population `SUM` query then runs for the second half-hour.
//! A point is an `(N, parts)` pair:
//!
//! * `parts = 1`: one overlay on one engine, the system the paper
//!   describes.
//! * `parts > 1`: the population sharded by CorpNet site into `parts`
//!   overlays, federated over the partitioned executor
//!   ([`seaweed_sim::exec`]) in serial or parallel mode. The root merges
//!   per-shard row counts ([`seaweed_core::federation`]).
//!
//! Every point must end complete (rows == N) and [`ChaosOracle`]-clean,
//! every shard included.
//!
//! The default ladder is N = 1,000…16,000 doubling and 51,663 (the
//! Farsite population, paper §4) on one overlay, then 51,663 and 258,315
//! on 8 parts in both modes. `--million 1` adds (1,000,000, 8). `--n N
//! --parts P --mode serial|parallel|both` runs one population instead;
//! a single-overlay point has no executor and runs once in any mode.
//!
//! A run of one point measures it in this process. A run of several
//! re-invokes this binary once per point, so each `peak_rss_bytes` is
//! that point's own (`VmHWM` only grows within a process), and fails
//! if the serial and parallel runs of a federated point disagree.
//!
//! Artifacts:
//!
//! * `results/scale.csv`: deterministic columns, one row per
//!   `(N, parts)`. Byte-stable across hosts, modes and worker counts for
//!   a fixed `--seed`.
//! * `BENCH_scale.json`: every point with wall seconds (world build plus
//!   run), events/s, peak RSS and workers, the host-dependent numbers
//!   behind EXPERIMENTS.md.

use std::process::Command;
use std::sync::Arc;

use seaweed_bench::{peak_rss_bytes, write_csv, Args};
use seaweed_core::{
    ChaosOracle, FedSchedule, FedShard, LiveTables, Seaweed, SeaweedConfig, SeaweedEngine,
};
use seaweed_overlay::{Overlay, OverlayConfig};
use seaweed_sim::exec::{partition_seed, run_partitioned, ExecConfig, ExecKind};
use seaweed_sim::{CorpNetTopology, Engine, NodeIdx, SimConfig, SubTopology, Topology};
use seaweed_store::{ColumnDef, DataType, Schema, Table, Value};
use seaweed_types::{Duration, Time};

/// The Farsite trace population (paper §4).
const FARSITE_N: usize = 51_663;

const QUERY: &str = "SELECT SUM(v) FROM T WHERE flag = 1";

const HEADER: [&str; 14] = [
    "n",
    "parts",
    "lookahead_us",
    "events",
    "messages",
    "tx_overlay_bytes",
    "tx_maintenance_bytes",
    "tx_query_bytes",
    "meta_pushes",
    "disseminate_msgs",
    "predictor_reports",
    "result_submissions",
    "rows",
    "completeness",
];

/// Deterministic counters of one overlay, or their sum over shards.
#[derive(Default)]
struct Counters {
    events: u64,
    messages: u64,
    tx_bytes: [u64; 3],
    meta_pushes: u64,
    dissem_msgs: u64,
    predictor_reports: u64,
    result_submissions: u64,
}

impl Counters {
    /// Asserts that an overlay of `n` endsystems ended clean, then reads
    /// its counters.
    fn read(events: u64, n: u64, sw: &Seaweed<LiveTables>, eng: SeaweedEngine) -> Self {
        ChaosOracle::new(n).assert_clean(sw, &eng);
        let stats = sw.stats;
        let messages = eng.messages_sent;
        let tx_bytes = eng.finish().total_tx;
        Counters {
            events,
            messages,
            tx_bytes,
            meta_pushes: stats.meta_pushes,
            dissem_msgs: stats.disseminate_msgs,
            predictor_reports: stats.predictor_reports,
            result_submissions: stats.result_submissions,
        }
    }

    fn add(mut self, o: &Counters) -> Self {
        self.events += o.events;
        self.messages += o.messages;
        for (a, b) in self.tx_bytes.iter_mut().zip(o.tx_bytes) {
            *a += b;
        }
        self.meta_pushes += o.meta_pushes;
        self.dissem_msgs += o.dissem_msgs;
        self.predictor_reports += o.predictor_reports;
        self.result_submissions += o.result_submissions;
        self
    }
}

/// One `(N, parts, mode)` run. Every field except `workers`, `wall_s`
/// and `peak_rss` is identical between serial and parallel execution.
struct Point {
    n: usize,
    parts: usize,
    kind: ExecKind,
    workers: usize,
    lookahead_us: u64,
    wall_s: f64,
    peak_rss: u64,
    c: Counters,
    rows: u64,
}

impl Point {
    fn row(&self) -> Vec<f64> {
        let c = &self.c;
        vec![
            self.n as f64,
            self.parts as f64,
            self.lookahead_us as f64,
            c.events as f64,
            c.messages as f64,
            c.tx_bytes[0] as f64,
            c.tx_bytes[1] as f64,
            c.tx_bytes[2] as f64,
            c.meta_pushes as f64,
            c.dissem_msgs as f64,
            c.predictor_reports as f64,
            c.result_submissions as f64,
            self.rows as f64,
            self.rows as f64 / self.n as f64,
        ]
    }

    /// The point as one JSON object. The deterministic fields come
    /// before `"mode"`, the host-dependent ones after it.
    fn json(&self) -> String {
        let c = &self.c;
        format!(
            "{{\"n\": {}, \"parts\": {}, \"lookahead_us\": {}, \"events\": {}, \
             \"messages\": {}, \"tx_overlay_bytes\": {}, \"tx_maintenance_bytes\": {}, \
             \"tx_query_bytes\": {}, \"completeness\": {:.3}, \"mode\": \"{}\", \
             \"workers\": {}, \"wall_s\": {:.3}, \"events_per_s\": {:.0}, \
             \"peak_rss_bytes\": {}}}",
            self.n,
            self.parts,
            self.lookahead_us,
            c.events,
            c.messages,
            c.tx_bytes[0],
            c.tx_bytes[1],
            c.tx_bytes[2],
            self.rows as f64 / self.n as f64,
            mode_name(self.kind),
            self.workers,
            self.wall_s,
            self.events_per_s(),
            self.peak_rss,
        )
    }

    fn events_per_s(&self) -> f64 {
        self.c.events as f64 / self.wall_s.max(1e-9)
    }
}

fn mode_name(kind: ExecKind) -> &'static str {
    match kind {
        ExecKind::Serial => "serial",
        ExecKind::Parallel => "parallel",
    }
}

fn schema() -> Schema {
    Schema::new(
        "T",
        vec![
            ColumnDef::new("flag", DataType::Int, true),
            ColumnDef::new("v", DataType::Int, true),
        ],
    )
}

/// One overlay over `members` (global endsystem ids, local index `i` is
/// `members[i]`) of an `n`-endsystem population: a `T(flag = 1, v = id +
/// 1)` row per endsystem, and joins staggered by global id.
fn world(
    topo: Box<dyn Topology>,
    members: &[u32],
    n: usize,
    seed: u64,
) -> (SeaweedEngine, Seaweed<LiveTables>) {
    let schema = schema();
    let tables = members
        .iter()
        .map(|&g| {
            let mut t = Table::new(schema.clone());
            t.insert(vec![Value::Int(1), Value::Int(i64::from(g) + 1)])
                .expect("seed row");
            t
        })
        .collect();
    let mut eng: SeaweedEngine = Engine::new(
        topo,
        SimConfig {
            seed,
            ..SimConfig::default()
        },
    );
    let overlay = Overlay::new(
        Overlay::random_ids(members.len(), seed),
        OverlayConfig {
            seed,
            ..Default::default()
        },
    );
    let sw = Seaweed::new(
        overlay,
        LiveTables::new(tables),
        SeaweedConfig {
            seed,
            ..Default::default()
        },
    );
    let step = (60_000_000 / n as u64).max(1);
    for (l, &g) in members.iter().enumerate() {
        eng.schedule_up(Time(1 + u64::from(g) * step), NodeIdx(l as u32));
    }
    (eng, sw)
}

/// The single-overlay run: counters and rows.
fn single(n: usize, seed: u64) -> (Counters, u64) {
    let members: Vec<u32> = (0..n as u32).collect();
    let (mut eng, mut sw) = world(Box::new(CorpNetTopology::new(n, seed)), &members, n, seed);
    let mut events = 0u64;
    let mut drive = |sw: &mut Seaweed<LiveTables>, eng: &mut SeaweedEngine, horizon: Time| {
        while let Some((_, ev)) = eng.next_event_before(horizon) {
            events += 1;
            sw.dispatch(eng, ev);
        }
    };
    drive(&mut sw, &mut eng, Time::from_secs(900));
    let h = sw
        .inject_query(
            &mut eng,
            NodeIdx(0),
            QUERY,
            Duration::from_hours(1),
            &schema(),
        )
        .expect("inject");
    drive(&mut sw, &mut eng, Time::from_secs(1800));
    let rows = sw.query(h).rows();
    assert_eq!(rows, n as u64, "completeness must be 1.0 at N={n}");
    (Counters::read(events, n as u64, &sw, eng), rows)
}

/// The federated run: summed counters, rows, lookahead and workers.
fn federated(
    n: usize,
    parts: usize,
    kind: ExecKind,
    workers: usize,
    seed: u64,
) -> (Counters, u64, Duration, usize) {
    let global = Arc::new(CorpNetTopology::new(n, seed));
    let pmap = global
        .partition_map(parts)
        .unwrap_or_else(|| panic!("no {parts}-way site partition at N={n}"));
    let schedule = FedSchedule {
        inject_at: Time::from_secs(900),
        report_at: Time::from_secs(1750),
    };
    let cfg = ExecConfig {
        kind,
        partitions: parts,
        workers,
    };
    let build = |p: usize| {
        let members = &pmap.members[p];
        let shard_seed = partition_seed(seed, p);
        let topo = SubTopology::new(global.clone(), members.clone());
        let (eng, sw) = world(Box::new(topo), members, n, shard_seed);
        let app = FedShard::new(
            sw,
            p as u32,
            parts as u32,
            pmap.lookahead,
            schedule,
            QUERY,
            Duration::from_hours(1),
            schema(),
        );
        (eng, app)
    };
    let finish = |p: usize, eng: SeaweedEngine, app: FedShard| {
        let local_n = pmap.members[p].len() as u64;
        let rows = app.local_rows();
        assert_eq!(rows, local_n, "shard {p} completeness must be 1.0 at N={n}");
        let c = Counters::read(app.events, local_n, &app.sw, eng);
        (c, rows, app.merged_rows, app.reports_received)
    };
    let shards = run_partitioned(&cfg, pmap.lookahead, Time::from_secs(1800), build, finish);

    // Federated completeness: the root saw its own rows plus a report
    // from every other shard, and the union covers the population.
    let (_, root_rows, merged_rows, reports) = shards[0];
    assert_eq!(reports, parts as u32 - 1);
    let rows = root_rows + merged_rows;
    assert_eq!(
        rows, n as u64,
        "federated completeness must be 1.0 at N={n}"
    );
    let c = shards
        .iter()
        .fold(Counters::default(), |acc, s| acc.add(&s.0));
    (c, rows, pmap.lookahead, cfg.effective_workers())
}

fn run_point(n: usize, parts: usize, kind: ExecKind, workers: usize, seed: u64) -> Point {
    // lint:allow(D002): host-side benchmark timing for BENCH_scale.json, never feeds simulated time
    let t0 = std::time::Instant::now();
    let (c, rows, lookahead, workers) = if parts == 1 {
        let (c, rows) = single(n, seed);
        (c, rows, Duration::ZERO, 1)
    } else {
        federated(n, parts, kind, workers, seed)
    };
    Point {
        n,
        parts,
        kind,
        workers,
        lookahead_us: lookahead.as_micros(),
        wall_s: t0.elapsed().as_secs_f64(),
        peak_rss: peak_rss_bytes(),
        c,
        rows,
    }
}

fn write_json(path: &str, seed: u64, points: &[String]) {
    let body: Vec<String> = points.iter().map(|p| format!("    {p}")).collect();
    let out = format!(
        "{{\n  \"bench\": \"scale\",\n  \"seed\": {seed},\n  \"host_cores\": {},\n  \
         \"points\": [\n{}\n  ]\n}}\n",
        // lint:allow(D004): reads the core count for the JSON header; spawns nothing
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        body.join(",\n"),
    );
    std::fs::write(path, out).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("  wrote {path}");
}

fn main() {
    let args = Args::parse();
    // 0 = the default ladder.
    let n = args.get("n", 0usize);
    let parts = args.get("parts", 1usize);
    let workers = args.get("workers", 0usize); // 0 = one per core
    let million = args.get("million", 0usize) != 0;
    let seed = args.get("seed", 42u64);
    let mode = args.get_str("mode", "both");
    let out = args.get_str("out", "results/scale.csv");
    let json = args.get_str("json", "BENCH_scale.json");

    let kinds = match mode.as_str() {
        "serial" => vec![ExecKind::Serial],
        "parallel" => vec![ExecKind::Parallel],
        "both" => vec![ExecKind::Serial, ExecKind::Parallel],
        other => panic!("--mode {other}: expected both|serial|parallel"),
    };
    let ladder = if n > 0 {
        vec![(n, parts)]
    } else {
        let mut l = [1_000, 2_000, 4_000, 8_000, 16_000, FARSITE_N]
            .map(|n| (n, 1))
            .to_vec();
        l.extend([(FARSITE_N, 8), (258_315, 8)]);
        if million {
            l.push((1_000_000, 8));
        }
        l
    };
    let mut points: Vec<(usize, usize, ExecKind)> = Vec::new();
    for (n, parts) in ladder {
        let kinds = if parts == 1 {
            &[ExecKind::Serial][..]
        } else {
            &kinds
        };
        points.extend(kinds.iter().map(|&k| (n, parts, k)));
    }
    println!("Scale: {} point(s), seed {seed}", points.len());

    if let [(n, parts, kind)] = points[..] {
        let p = run_point(n, parts, kind, workers, seed);
        println!(
            "  N={n:>7} parts={parts} {:>8}: {:>10} events, {:>7.1}s wall ({:.0} events/s, \
             {} workers), peak RSS {:.0} MB, completeness {:.3}",
            mode_name(kind),
            p.c.events,
            p.wall_s,
            p.events_per_s(),
            p.workers,
            p.peak_rss as f64 / 1e6,
            p.rows as f64 / n as f64,
        );
        write_csv(&out, &HEADER, &[p.row()]);
        write_json(&json, seed, &[p.json()]);
        return;
    }

    // One child process per point; each writes a one-row CSV and a
    // one-point JSON that are concatenated here.
    let exe = std::env::current_exe().expect("own path");
    let tmp = std::env::temp_dir().join(format!("seaweed-scale-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create point dir");
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut lines: Vec<String> = Vec::new();
    for (i, &(n, parts, kind)) in points.iter().enumerate() {
        let csv = tmp.join(format!("{i}.csv"));
        let js = tmp.join(format!("{i}.json"));
        let status = Command::new(&exe)
            .args(["--n", &n.to_string(), "--parts", &parts.to_string()])
            .args(["--mode", mode_name(kind), "--workers", &workers.to_string()])
            .args(["--seed", &seed.to_string()])
            .arg("--out")
            .arg(&csv)
            .arg("--json")
            .arg(&js)
            .status()
            .expect("start point process");
        assert!(status.success(), "N={n} parts={parts} {kind:?}: {status}");
        let read = |p: &std::path::Path| {
            std::fs::read_to_string(p).unwrap_or_else(|e| panic!("{}: {e}", p.display()))
        };
        let row: Vec<f64> = read(&csv)
            .lines()
            .nth(1)
            .expect("point row")
            .split(',')
            .map(|v| v.parse().expect("numeric cell"))
            .collect();
        let line = read(&js)
            .lines()
            .find(|l| l.starts_with("    {"))
            .expect("point line")
            .trim()
            .to_owned();
        // A second run of the same (N, parts) is the other mode: it must
        // reproduce every deterministic counter of the first.
        if i > 0 && points[i - 1].0 == n && points[i - 1].1 == parts {
            let det = |l: &str| l[..l.find(", \"mode\"").expect("mode field")].to_owned();
            assert_eq!(
                det(lines.last().expect("previous point")),
                det(&line),
                "serial and parallel runs diverged at N={n}, parts={parts}"
            );
            assert_eq!(rows.last(), Some(&row), "rows diverged at N={n}");
        } else {
            rows.push(row);
        }
        lines.push(line);
    }
    std::fs::remove_dir_all(&tmp).expect("remove point dir");
    write_csv(&out, &HEADER, &rows);
    write_json(&json, seed, &lines);
}
