//! Chaos sweep: the full Seaweed stack under a deterministic fault plan
//! combining a structural partition, crash-amnesia, a correlated branch
//! outage, link degradation, message duplication and bounded reordering.
//! Across many seeds the [`ChaosOracle`] invariants must hold at every
//! checkpoint, and the same seed must reproduce a byte-identical event
//! log. A last test checks that freed per-query slots do not leak state
//! into a later query that reuses them.

mod common;

use common::{drive, drive_logged, secs, EventLog, World, CHECKPOINTS, N, T0};
use proptest::prelude::*;
use seaweed_core::ChaosOracle;
use seaweed_sim::NodeIdx;
use seaweed_types::Duration;

struct RunResult {
    log_hash: u64,
    log_len: u64,
    rows: u64,
    violations: Vec<String>,
    amnesia_crashes: u64,
    duplicated: u64,
    dropped_partition: u64,
    trace_recorded: u64,
}

fn run_chaos(seed: u64, trace: bool) -> RunResult {
    let (mut eng, mut sw, schema) = World {
        trace,
        ..World::new(seed)
    }
    .build();
    let mut log = EventLog::new();
    drive_logged(&mut eng, &mut sw, T0, &mut log);
    assert_eq!(sw.overlay.num_joined(), N, "all join before the faults");

    sw.inject_query(
        &mut eng,
        NodeIdx(0),
        "SELECT SUM(v) FROM T WHERE flag = 1",
        Duration::from_hours(4),
        &schema,
    )
    .unwrap();

    let oracle = ChaosOracle::new(N as u64);
    let mut violations = Vec::new();
    for t in CHECKPOINTS {
        drive_logged(&mut eng, &mut sw, secs(t), &mut log);
        violations.extend(oracle.check(&sw, &eng));
    }

    RunResult {
        log_hash: log.hash,
        log_len: log.len,
        rows: sw.query(0).rows(),
        violations,
        amnesia_crashes: sw.stats.amnesia_crashes,
        duplicated: eng.messages_duplicated,
        dropped_partition: eng.dropped_partition,
        trace_recorded: eng.tracer().map_or(0, seaweed_sim::Tracer::recorded),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn chaos_invariants_hold_and_runs_are_deterministic(seed in 0u64..10_000) {
        let a = run_chaos(seed, false);
        prop_assert!(
            a.violations.is_empty(),
            "oracle violations (seed {seed}):\n  {}",
            a.violations.join("\n  ")
        );
        // Every fault class must actually have fired.
        prop_assert!(a.amnesia_crashes >= 2, "amnesia crashes: {}", a.amnesia_crashes);
        prop_assert!(a.duplicated > 0, "no duplicated messages");
        prop_assert!(a.dropped_partition > 0, "partition cut no traffic");
        // Delay-aware, not wrong: results may be incomplete under faults
        // but never inflated (the oracle checked rows <= N), and most of
        // the population converges once everything heals.
        prop_assert!(
            a.rows >= (N as u64) * 55 / 100,
            "rows {} of {N} after heal",
            a.rows
        );

        // Same seed, byte-identical schedule.
        let b = run_chaos(seed, false);
        prop_assert_eq!(a.log_hash, b.log_hash, "event logs diverged (seed {})", seed);
        prop_assert_eq!(a.log_len, b.log_len);
        prop_assert_eq!(a.rows, b.rows);
    }

    /// The full chaos run with engine tracing enabled stays oracle-clean
    /// and its event-log fingerprint is identical to the tracing-off run
    /// of the same seed: observation never perturbs the schedule.
    #[test]
    fn chaos_with_tracing_matches_untraced(seed in 0u64..10_000) {
        let traced = run_chaos(seed, true);
        prop_assert!(
            traced.violations.is_empty(),
            "oracle violations under tracing (seed {seed}):\n  {}",
            traced.violations.join("\n  ")
        );
        prop_assert!(traced.trace_recorded > 0, "tracer captured nothing");
        let plain = run_chaos(seed, false);
        prop_assert_eq!(plain.trace_recorded, 0);
        prop_assert_eq!(traced.log_hash, plain.log_hash, "tracing perturbed the schedule (seed {})", seed);
        prop_assert_eq!(traced.log_len, plain.log_len);
        prop_assert_eq!(traced.rows, plain.rows);
    }
}

/// Slab/block reuse across query lifecycles: a first query's expiry
/// returns its vertex slots and per-query blocks to the free pools; a
/// second query then reuses them. The second query must converge to full
/// completeness and the exactly-once oracle must stay clean throughout —
/// any state leaking out of a recycled slot (stale children, holders,
/// epochs, leaf targets) would trip it.
#[test]
fn freed_query_slots_do_not_leak_into_reused_handles() {
    let (mut eng, mut sw, schema) = World::new(7).build();
    drive(&mut eng, &mut sw, T0);

    // First query: short lifetime so it expires mid-run.
    let h0 = sw
        .inject_query(
            &mut eng,
            NodeIdx(0),
            "SELECT SUM(v) FROM T WHERE flag = 1",
            Duration::from_secs(120),
            &schema,
        )
        .unwrap();
    drive(&mut eng, &mut sw, secs(900));
    assert!(!sw.query(h0).active, "first query must have expired");

    // Second query reuses the recycled arena storage.
    let h1 = sw
        .inject_query(
            &mut eng,
            NodeIdx(0),
            "SELECT COUNT(*) FROM T WHERE flag = 1",
            Duration::from_hours(2),
            &schema,
        )
        .unwrap();
    assert_ne!(h0, h1, "handles are never reused");
    drive(&mut eng, &mut sw, secs(1800));

    let oracle = ChaosOracle::new(N as u64);
    oracle.assert_clean(&sw, &eng);
    assert_eq!(sw.query(h1).rows(), N as u64, "second query converges");
}
