//! Storm-mode tests: the concurrent multi-query engine (admission
//! control, slot recycling behind generation counters, fair scan
//! scheduling) against the PR-1/PR-5 determinism bar.
//!
//! * A K=1 storm run must be **byte-identical** to the storm-off
//!   baseline under the full chaos plan: same event-log fingerprint,
//!   same rows, same bandwidth report. The storm machinery may only
//!   change behaviour when queries actually contend.
//! * K concurrent queries must each converge to the same rows they get
//!   when run alone (same seed) — fair scheduling may reorder work but
//!   must never lose or duplicate contributions.
//! * Under the full chaos plan with slot-recycling pressure the run
//!   must stay oracle-clean (exactly-once, predictor sanity, storm
//!   hygiene) and be bit-stable across repeated runs, for 16 seeds.
//! * A delayed reply addressed to an expired query's recycled slot must
//!   be rejected at the message boundary (`stale_handle_drops`), leaving
//!   the slot's new tenant untouched.

mod common;

use common::{drive, drive_logged, fnv_str, secs, EventLog, World, CHECKPOINTS, N, T0};
use proptest::prelude::*;
use seaweed_core::{
    ChaosOracle, LiveTables, Seaweed, SeaweedConfig, SeaweedEngine, SeaweedMsg, StormConfig,
    Submission,
};
use seaweed_overlay::OverlayMsg;
use seaweed_sim::{Event, NodeIdx, Payload};
use seaweed_store::{AggFunc, Aggregate, Schema};
use seaweed_types::Duration;

/// Rows per endsystem fragment, all matching every test predicate.
/// More than one row so that `quantum_rows: 1` storm configs force a
/// scan through multiple preemption quanta (exercising the slicing
/// path, not just the batching path).
const ROWS_PER_NODE: usize = 3;
/// Ground-truth matching rows across the population.
const TOTAL_ROWS: u64 = (N * ROWS_PER_NODE) as u64;

/// The storm world: `chaos` adds the full fault plan and 1% loss.
fn world(
    seed: u64,
    storm: Option<StormConfig>,
    chaos: bool,
) -> (SeaweedEngine, Seaweed<LiveTables>, Schema) {
    World {
        rows_per_node: ROWS_PER_NODE,
        chaos,
        seaweed: SeaweedConfig {
            storm,
            ..SeaweedConfig::default()
        },
        ..World::new(seed)
    }
    .build()
}

struct ChaosRun {
    log: EventLog,
    rows: u64,
    violations: Vec<String>,
    report: String,
}

/// One full chaos run injecting a single query at T0. With
/// `storm: Some(..)` the query goes through `submit_query`; otherwise
/// through the baseline `inject_query`. Used for the K=1 byte-identity
/// bar.
fn run_chaos_single(seed: u64, storm: Option<StormConfig>) -> ChaosRun {
    let storm_on = storm.is_some();
    let (mut eng, mut sw, schema) = world(seed, storm, true);
    let mut log = EventLog::new();
    drive_logged(&mut eng, &mut sw, T0, &mut log);
    assert_eq!(sw.overlay.num_joined(), N, "all join before the faults");

    let sql = "SELECT SUM(v) FROM T WHERE flag = 1";
    let ttl = Duration::from_hours(4);
    let h = if storm_on {
        match sw
            .submit_query(&mut eng, NodeIdx(0), sql, ttl, &schema)
            .unwrap()
        {
            Submission::Admitted(h) => h,
            Submission::Queued(t) => panic!("K=1 submission queued (ticket {t})"),
        }
    } else {
        sw.inject_query(&mut eng, NodeIdx(0), sql, ttl, &schema)
            .unwrap()
    };

    let oracle = ChaosOracle::new(TOTAL_ROWS);
    let mut violations = Vec::new();
    for t in CHECKPOINTS {
        drive_logged(&mut eng, &mut sw, secs(t), &mut log);
        violations.extend(oracle.check(&sw, &eng));
    }

    ChaosRun {
        log,
        rows: sw.query(h).rows(),
        violations,
        report: format!("{:?}", eng.finish()),
    }
}

/// `(seed, log_hash, log_len, rows, report_hash)` of the K=1 baseline
/// run, captured when the binary-heap scheduler still existed and
/// matched the timer wheel on it.
const K1_GOLDENS: [(u64, u64, u64, u64, u64); 2] = [
    (3, 0xa00c_0c63_98b6_2ed7, 5695, 108, 0x3e5e_1130_86a9_b4d4),
    (17, 0xc543_4e43_89b5_4e5e, 5936, 108, 0x850f_97ae_3367_3093),
];

/// Tentpole gate: a 1-query storm takes the exact baseline code path —
/// event-for-event. Any divergence means storm mode perturbs the
/// uncontended protocol.
#[test]
fn k1_storm_is_byte_identical_to_baseline() {
    let mut got = Vec::new();
    for (seed, ..) in K1_GOLDENS {
        let base = run_chaos_single(seed, None);
        let storm = run_chaos_single(seed, Some(StormConfig::default()));
        assert!(base.violations.is_empty(), "{:?}", base.violations);
        assert!(storm.violations.is_empty(), "{:?}", storm.violations);
        assert_eq!(
            base.log, storm.log,
            "K=1 storm event log diverged from baseline (seed {seed})"
        );
        assert_eq!(base.rows, storm.rows);
        assert_eq!(
            base.report, storm.report,
            "bandwidth reports diverged (seed {seed})"
        );
        got.push((
            seed,
            base.log.hash,
            base.log.len,
            base.rows,
            fnv_str(&base.report),
        ));
    }
    assert_eq!(
        got, K1_GOLDENS,
        "K=1 runs diverged from the goldens: {got:#x?}"
    );
}

/// Per-query distinct predicates that all match every row (one row per
/// endsystem with flag = 1), so the K queries have distinct identities
/// but identical ground truth.
fn storm_sql(i: usize) -> String {
    format!("SELECT SUM(v) FROM T WHERE flag < {}", 2 + i as i64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Fair-scheduling correctness: K queries run concurrently see
    /// exactly the rows each sees alone (same seed). The scan scheduler
    /// may interleave and batch work but must never lose or duplicate a
    /// contribution.
    #[test]
    fn concurrent_queries_match_solo_rows(seed in 0u64..10_000, k in 2usize..6) {
        // Tight quanta so contended endsystems actually slice and share
        // scans at this tiny scale.
        let storm = StormConfig {
            quantum_rows: 1,
            max_batch: 4,
            ..StormConfig::default()
        };
        // Concurrent: all K injected back-to-back at T0.
        let (mut eng, mut sw, schema) = world(seed, Some(storm.clone()), false);
        drive(&mut eng, &mut sw, T0);
        let mut handles = Vec::new();
        for i in 0..k {
            let sub = sw
                .submit_query(
                    &mut eng,
                    NodeIdx((i % N) as u32),
                    &storm_sql(i),
                    Duration::from_hours(4),
                    &schema,
                )
                .unwrap();
            match sub {
                Submission::Admitted(h) => handles.push(h),
                Submission::Queued(t) => panic!("K<{k} under budget queued ({t})"),
            }
        }
        drive(&mut eng, &mut sw, secs(1800));
        let oracle = ChaosOracle::new(TOTAL_ROWS);
        oracle.assert_clean(&sw, &eng);
        let together: Vec<u64> = handles.iter().map(|&h| sw.query(h).rows()).collect();

        // Alone: each query in a fresh world, same seed.
        for (i, &rows_together) in together.iter().enumerate() {
            let (mut eng, mut sw, schema) = world(seed, Some(storm.clone()), false);
            drive(&mut eng, &mut sw, T0);
            let Submission::Admitted(h) = sw
                .submit_query(
                    &mut eng,
                    NodeIdx((i % N) as u32),
                    &storm_sql(i),
                    Duration::from_hours(4),
                    &schema,
                )
                .unwrap()
            else {
                panic!("solo submission queued")
            };
            drive(&mut eng, &mut sw, secs(1800));
            prop_assert_eq!(
                rows_together,
                sw.query(h).rows(),
                "query {} sees different rows under contention (seed {}, k {})",
                i, seed, k
            );
        }
    }
}

/// FNV hash over the `Debug` rendering of all sixteen per-seed
/// `(log, admitted tickets)` fingerprints below.
const SIXTEEN_SEED_GOLDEN: u64 = 0x7ce9_6a46_ddd0_5aa1;

/// Chaos under storm pressure, 16 seeds: a burst of queries exceeding a
/// small in-flight budget (forcing queueing, slot recycling and
/// generation bumps mid-chaos) must stay oracle-clean, each seed's run
/// must be bit-stable — the same fingerprint twice — and the sixteen
/// fingerprints must match the golden.
#[test]
fn sixteen_seed_chaos_storm_is_clean_and_stable() {
    let fingerprint = |seed: u64| -> (EventLog, Vec<u64>) {
        let storm = StormConfig {
            max_in_flight: 4,
            quantum_rows: 1,
            ..StormConfig::default()
        };
        let (mut eng, mut sw, schema) = world(seed, Some(storm), true);
        let mut log = EventLog::new();
        drive_logged(&mut eng, &mut sw, T0, &mut log);
        // 8 queries against a budget of 4: half park in the admission
        // queue; short TTLs force expiry → release → admission churn
        // across the fault windows.
        for i in 0..8 {
            let ttl = Duration::from_secs(120 + 60 * i as u64);
            sw.submit_query(&mut eng, NodeIdx(0), &storm_sql(i), ttl, &schema)
                .unwrap();
        }
        let oracle = ChaosOracle::new(TOTAL_ROWS);
        for t in CHECKPOINTS {
            drive_logged(&mut eng, &mut sw, secs(t), &mut log);
            let v = oracle.check(&sw, &eng);
            assert!(
                v.is_empty(),
                "oracle violations (seed {seed}, t {t}):\n  {}",
                v.join("\n  ")
            );
        }
        let admitted: Vec<u64> = sw.drain_admissions().iter().map(|&(t, _)| t).collect();
        (log, admitted)
    };
    let mut all = Vec::new();
    for seed in 0u64..16 {
        let a = fingerprint(seed);
        let b = fingerprint(seed);
        assert_eq!(a, b, "chaos storm not bit-stable (seed {seed})");
        all.push(a);
    }
    let got = fnv_str(&format!("{all:?}"));
    assert_eq!(
        got, SIXTEEN_SEED_GOLDEN,
        "fingerprints diverged ({got:#x}): {all:#x?}"
    );
}

/// Satellite-1 regression: expire query A, let its slot recycle into
/// query B, then deliver a forged "delayed reply" still addressed to
/// A's old handle. The reply must be dropped at the message boundary
/// (`stale_handle_drops`), and B must be untouched.
#[test]
fn stale_reply_to_recycled_slot_is_dropped() {
    let (mut eng, mut sw, schema) = world(11, Some(StormConfig::default()), false);
    drive(&mut eng, &mut sw, T0);

    // Query A: short TTL so it expires and releases its slot.
    let Submission::Admitted(h_a) = sw
        .submit_query(
            &mut eng,
            NodeIdx(0),
            "SELECT SUM(v) FROM T WHERE flag = 1",
            Duration::from_secs(120),
            &schema,
        )
        .unwrap()
    else {
        panic!("A queued")
    };
    drive(&mut eng, &mut sw, secs(900));
    assert_eq!(sw.storm_in_flight(), 0, "A must have expired and released");

    // Query B recycles A's slot under a bumped generation.
    let Submission::Admitted(h_b) = sw
        .submit_query(
            &mut eng,
            NodeIdx(0),
            "SELECT COUNT(*) FROM T WHERE flag = 1",
            Duration::from_hours(2),
            &schema,
        )
        .unwrap()
    else {
        panic!("B queued")
    };
    assert_ne!(h_a, h_b, "handles are never reused");
    drive(&mut eng, &mut sw, secs(1800));
    let rows_b = sw.query(h_b).rows();
    assert_eq!(rows_b, TOTAL_ROWS, "B converges before the stale delivery");
    let version_b = sw.query(h_b).latest_version;
    let drops_before = sw.stats.stale_handle_drops;

    // A's "delayed reply": a root-aggregate push carrying A's old
    // handle, a huge row count and a version far beyond B's. Without
    // generation checking this would overwrite B's result at the
    // origin.
    let mut agg = Aggregate::empty(AggFunc::Sum);
    for _ in 0..12_345 {
        agg.fold(1.0);
    }
    let forged = Event::Message {
        from: NodeIdx(1),
        to: NodeIdx(0),
        payload: Payload::Owned(OverlayMsg::App(SeaweedMsg::ResultToOrigin {
            query: h_a,
            agg,
            version: version_b + 1_000,
        })),
    };
    sw.dispatch(&mut eng, forged);

    assert_eq!(
        sw.stats.stale_handle_drops,
        drops_before + 1,
        "forged reply must be counted as a stale drop"
    );
    assert_eq!(sw.query(h_b).rows(), rows_b, "B's rows must be untouched");
    assert_eq!(
        sw.query(h_b).latest_version,
        version_b,
        "B's version must be untouched"
    );
    let oracle = ChaosOracle::new(TOTAL_ROWS);
    oracle.assert_clean(&sw, &eng);
}

/// Admission control mechanics without faults: a burst of 3× the budget
/// admits exactly `budget` immediately, parks the rest in ticket order,
/// and promotes them in order as retirements free slots.
#[test]
fn admission_queue_promotes_in_ticket_order() {
    let storm = StormConfig {
        max_in_flight: 2,
        ..StormConfig::default()
    };
    let (mut eng, mut sw, schema) = world(5, Some(storm), false);
    drive(&mut eng, &mut sw, T0);

    let mut admitted = Vec::new();
    let mut queued = Vec::new();
    for i in 0..6 {
        match sw
            .submit_query(
                &mut eng,
                NodeIdx(i as u32),
                &storm_sql(i),
                Duration::from_hours(4),
                &schema,
            )
            .unwrap()
        {
            Submission::Admitted(h) => admitted.push(h),
            Submission::Queued(t) => queued.push(t),
        }
    }
    assert_eq!(admitted.len(), 2, "budget admits exactly 2");
    assert_eq!(queued.len(), 4);
    assert!(queued.windows(2).all(|w| w[0] < w[1]), "tickets ascend");
    assert_eq!(sw.storm_queue_len(), 4);
    assert_eq!(sw.stats.storm_admitted, 2);
    assert_eq!(sw.stats.storm_queued, 4);

    // Let the two in-flight queries finish, then retire them: the queue
    // must drain in ticket order, two at a time.
    drive(&mut eng, &mut sw, secs(1200));
    for &h in &admitted {
        assert_eq!(sw.query(h).rows(), TOTAL_ROWS);
        sw.retire_query(&mut eng, h);
    }
    let promoted = sw.drain_admissions();
    assert_eq!(promoted.len(), 2, "two freed slots admit two tickets");
    assert_eq!(promoted[0].0, queued[0]);
    assert_eq!(promoted[1].0, queued[1]);
    assert_eq!(sw.storm_queue_len(), 2);

    drive(&mut eng, &mut sw, secs(2400));
    for &(_, h) in &promoted {
        assert_eq!(sw.query(h).rows(), TOTAL_ROWS, "promoted queries converge");
        sw.retire_query(&mut eng, h);
    }
    let rest = sw.drain_admissions();
    assert_eq!(rest.len(), 2);
    assert_eq!(rest[0].0, queued[2]);
    assert_eq!(rest[1].0, queued[3]);
    drive(&mut eng, &mut sw, secs(3600));
    for &(_, h) in &rest {
        assert_eq!(sw.query(h).rows(), TOTAL_ROWS);
    }
    let oracle = ChaosOracle::new(TOTAL_ROWS);
    oracle.assert_clean(&sw, &eng);
}
