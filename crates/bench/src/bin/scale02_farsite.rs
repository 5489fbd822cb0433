//! Scale 02: the paper's Farsite-scale run, end-to-end at packet level.
//!
//! The paper's evaluation (fig05-08) replays a 51,663-endsystem Farsite
//! corporate-desktop trace. `scale01` stopped at N = 16,000 because the
//! map-based hot state collapsed events/s with population; this sweep
//! runs the arena/SoA layout through N = 4,000 / 8,000 / 16,000 and then
//! the full 51,663-endsystem population: every endsystem joins the
//! overlay, runs the metadata push loop, and one SUM aggregation query
//! covers the whole population. Each point must finish **complete and
//! clean**: completeness 1.0 (every endsystem's row aggregated) and a
//! [`ChaosOracle`] pass over the final state.
//!
//! Two artifacts, same split as scale01:
//!
//! * `results/scale02.csv` — deterministic columns only; with a fixed
//!   `--seed` the file is byte-stable across machines (CI smoke compares
//!   two runs with `cmp`).
//! * `BENCH_scale02.json` — the same points plus wall-clock seconds,
//!   events/second and peak RSS, the machine-dependent numbers backing
//!   the EXPERIMENTS.md entry.

use seaweed_bench::{peak_rss_bytes, write_csv, Args, OutTable};
use seaweed_core::{ChaosOracle, LiveTables, Seaweed, SeaweedConfig, SeaweedEngine};
use seaweed_overlay::{Overlay, OverlayConfig};
use seaweed_sim::{CorpNetTopology, Engine, NodeIdx, SimConfig};
use seaweed_store::{ColumnDef, DataType, Schema, Table, Value};
use seaweed_types::{Duration, Time};

/// The Farsite trace population (paper §4).
const FARSITE_N: usize = 51_663;

/// Peak RSS of the full sweep at `FARSITE_N` *before* the hot-state
/// slimming (measured on the same container class; see git history of
/// `BENCH_scale02.json`).
const PEAK_RSS_BEFORE_SLIMMING: u64 = 3_848_216_576;

fn secs(s: u64) -> Time {
    Time(s * 1_000_000)
}

struct Point {
    n: usize,
    wall_s: f64,
    peak_rss: u64,
    events: u64,
    messages: u64,
    tx_bytes: [u64; 3],
    meta_pushes: u64,
    dissem_msgs: u64,
    predictor_reports: u64,
    result_submissions: u64,
    rows: u64,
}

fn run_point(n: usize, seed: u64) -> Point {
    let schema = Schema::new(
        "T",
        vec![
            ColumnDef::new("flag", DataType::Int, true),
            ColumnDef::new("v", DataType::Int, true),
        ],
    );
    let mut tables = Vec::with_capacity(n);
    for node in 0..n {
        let mut t = Table::new(schema.clone());
        t.insert(vec![Value::Int(1), Value::Int(node as i64 + 1)])
            .expect("seed row");
        tables.push(t);
    }
    let topo = CorpNetTopology::new(n, seed);
    let mut eng: SeaweedEngine = Engine::new(
        Box::new(topo),
        SimConfig {
            seed,
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
    let mut sw = Seaweed::new(
        overlay,
        LiveTables::new(tables),
        SeaweedConfig {
            seed,
            ..Default::default()
        },
    );
    // All endsystems come up within the first simulated minute, whatever
    // the population, so per-endsystem workload is N-independent and the
    // sweep isolates simulator scaling (same regime as scale01).
    let step = (60_000_000 / n as u64).max(1);
    for i in 0..n {
        eng.schedule_up(Time(1 + i as u64 * step), NodeIdx(i as u32));
    }

    // lint:allow(D002): host-side benchmark timing for BENCH_scale02.json, never feeds simulated time
    let t0 = std::time::Instant::now();
    let mut events = 0u64;
    let mut drive = |sw: &mut Seaweed<LiveTables>, eng: &mut SeaweedEngine, horizon: Time| {
        while let Some((_, ev)) = eng.next_event_before(horizon) {
            events += 1;
            sw.dispatch(eng, ev);
        }
    };
    // Joins plus one full metadata-push cycle, then a population-wide
    // aggregation query for the second half-hour.
    drive(&mut sw, &mut eng, secs(900));
    let h = sw
        .inject_query(
            &mut eng,
            NodeIdx(0),
            "SELECT SUM(v) FROM T WHERE flag = 1",
            Duration::from_hours(1),
            &schema,
        )
        .expect("inject");
    drive(&mut sw, &mut eng, secs(1800));
    let wall_s = t0.elapsed().as_secs_f64();

    // End-to-end acceptance: every endsystem's row reached the origin
    // (completeness 1.0) and the protocol invariants hold on the final
    // state — the Farsite point is only a result if it is *clean*.
    let rows = sw.query(h).rows();
    assert_eq!(rows, n as u64, "completeness must be 1.0 at N={n}");
    ChaosOracle::new(n as u64).assert_clean(&sw, &eng);

    let stats = sw.stats;
    let messages = eng.messages_sent;
    let report = eng.finish();
    Point {
        n,
        wall_s,
        peak_rss: peak_rss_bytes(),
        events,
        messages,
        tx_bytes: report.total_tx,
        meta_pushes: stats.meta_pushes,
        dissem_msgs: stats.disseminate_msgs,
        predictor_reports: stats.predictor_reports,
        result_submissions: stats.result_submissions,
        rows,
    }
}

fn write_json(path: &str, seed: u64, points: &[Point]) {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("{\n");
    writeln!(out, "  \"bench\": \"scale02_farsite\",").expect("string write");
    writeln!(out, "  \"seed\": {seed},").expect("string write");
    // Pre-slimming reference: the checked-in full-sweep peak RSS at
    // N=51,663 before the per-endsystem state diet (flattened lazy
    // routing table, interned predictor buckets, shrink-to-fit
    // histograms), for the before/after comparison in EXPERIMENTS.md.
    writeln!(
        out,
        "  \"peak_rss_bytes_before_slimming\": {PEAK_RSS_BEFORE_SLIMMING},"
    )
    .expect("string write");
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 == points.len() { "" } else { "," };
        writeln!(
            out,
            "    {{\"n\": {}, \"wall_s\": {:.3}, \"events\": {}, \"events_per_s\": {:.0}, \
             \"peak_rss_bytes\": {}, \"messages\": {}, \"tx_overlay_bytes\": {}, \
             \"tx_maintenance_bytes\": {}, \"tx_query_bytes\": {}, \"completeness\": {:.3}}}{comma}",
            p.n,
            p.wall_s,
            p.events,
            p.events as f64 / p.wall_s.max(1e-9),
            p.peak_rss,
            p.messages,
            p.tx_bytes[0],
            p.tx_bytes[1],
            p.tx_bytes[2],
            p.rows as f64 / p.n as f64,
        )
        .expect("string write");
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("  wrote {path}");
}

fn main() {
    let args = Args::parse();
    let base = args.get("base", 4_000usize);
    let max_n = args.get("max-n", 16_000usize);
    // The headline point; `--farsite-n 0` drops it (CI smoke).
    let farsite_n = args.get("farsite-n", FARSITE_N);
    let seed = args.get("seed", 42u64);
    let out = args.get_str("out", "results/scale02.csv");
    let json = args.get_str("json", "BENCH_scale02.json");

    let mut sizes = Vec::new();
    let mut n = base;
    while n <= max_n {
        sizes.push(n);
        n *= 2;
    }
    if farsite_n > 0 && !sizes.contains(&farsite_n) {
        sizes.push(farsite_n);
    }
    sizes.sort_unstable();
    println!("Scale 02 (Farsite): N in {sizes:?}, seed {seed}");

    let mut points = Vec::new();
    for &n in &sizes {
        let p = run_point(n, seed);
        println!(
            "  N={:>6}: {:>9} events, {:>6.1}s wall ({:.0} events/s), peak RSS {:.0} MB, completeness {:.3}",
            p.n,
            p.events,
            p.wall_s,
            p.events as f64 / p.wall_s.max(1e-9),
            p.peak_rss as f64 / 1e6,
            p.rows as f64 / p.n as f64,
        );
        points.push(p);
    }

    // Deterministic columns only — the CI smoke `cmp`s two same-seed runs.
    let rows: Vec<Vec<f64>> = points
        .iter()
        .map(|p| {
            vec![
                p.n as f64,
                p.events as f64,
                p.messages as f64,
                p.tx_bytes[0] as f64,
                p.tx_bytes[1] as f64,
                p.tx_bytes[2] as f64,
                p.meta_pushes as f64,
                p.dissem_msgs as f64,
                p.predictor_reports as f64,
                p.result_submissions as f64,
                p.rows as f64,
                p.rows as f64 / p.n as f64,
            ]
        })
        .collect();
    write_csv(
        &out,
        &[
            "n",
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
        ],
        &rows,
    );
    write_json(&json, seed, &points);

    let mut t = OutTable::new(&["n", "events", "wall_s", "events/s", "peak_rss_MB"]);
    for p in &points {
        t.row(vec![
            p.n.to_string(),
            p.events.to_string(),
            format!("{:.1}", p.wall_s),
            format!("{:.0}", p.events as f64 / p.wall_s.max(1e-9)),
            format!("{:.0}", p.peak_rss as f64 / 1e6),
        ]);
    }
    t.print();
}
