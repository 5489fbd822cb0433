//! Federated Seaweed under the partitioned parallel executor, with the
//! full chaos plan active in every shard.
//!
//! Three claims, pinned across 32 seeds per DESIGN.md §3.6, plus
//! golden fingerprints for three fixed seeds:
//!
//! 1. [`ExecKind::Parallel`] is byte-identical to [`ExecKind::Serial`]:
//!    per-shard event-log fingerprints, result rows, bandwidth reports
//!    and the root's merged report stream all match exactly.
//! 2. The [`ChaosOracle`] invariants hold in every shard of the
//!    *parallel* run — faults, partition cuts, crash-amnesia and
//!    duplication do not corrupt protocol state under the executor.
//! 3. The fault machinery actually fires inside shards (duplicated
//!    messages observed), so the equivalence is not vacuous.

mod common;

use std::sync::Arc;

use common::{federated_chaos_plan, fnv_str, schema, secs};
use proptest::prelude::*;
use seaweed_core::{
    ChaosOracle, FedSchedule, FedShard, LiveTables, Seaweed, SeaweedConfig, SeaweedEngine,
};
use seaweed_overlay::{Overlay, OverlayConfig};
use seaweed_sim::exec::{partition_seed, run_partitioned, ExecConfig, ExecKind};
use seaweed_sim::{CorpNetTopology, Engine, NodeIdx, SimConfig, SubTopology, Topology};
use seaweed_store::{Table, Value};
use seaweed_types::{Duration, Time};

const N: usize = 48;
const ROUTERS: usize = 24;
const PARTS: usize = 3;

/// Per-shard run fingerprint — everything that must be byte-identical
/// between serial and parallel execution.
#[derive(Debug, PartialEq)]
struct ShardResult {
    events: u64,
    rows: u64,
    merged_rows: u64,
    reports_received: u32,
    duplicated: u64,
    report: String,
    violations: Vec<String>,
}

fn run_federated(seed: u64, kind: ExecKind) -> Vec<ShardResult> {
    let schema = schema();
    let global = Arc::new(CorpNetTopology::with_params(
        N,
        ROUTERS,
        Duration::MILLISECOND,
        seed,
    ));
    let pmap = global.partition_map(PARTS).expect("CorpNet partitions");
    assert!(
        pmap.lookahead >= Duration::MILLISECOND,
        "site cut must give >= 1 ms lookahead, got {:?}",
        pmap.lookahead
    );
    let origins: Vec<u32> = pmap.members.iter().map(|m| m[0]).collect();
    let plan = federated_chaos_plan(&global, &origins);
    let schedule = FedSchedule {
        inject_at: secs(600),
        report_at: secs(1400),
    };
    let cfg = ExecConfig {
        kind,
        partitions: PARTS,
        workers: PARTS,
    };
    let build = |p: usize| {
        let members = pmap.members[p].clone();
        let shard_seed = partition_seed(seed, p);
        let tables: Vec<Table> = members
            .iter()
            .map(|&g| {
                let mut t = Table::new(schema.clone());
                t.insert(vec![Value::Int(1), Value::Int(i64::from(g) + 1)])
                    .unwrap();
                t
            })
            .collect();
        let mut eng: SeaweedEngine = Engine::new(
            Box::new(SubTopology::new(global.clone(), members.clone())),
            SimConfig {
                seed: shard_seed,
                loss_rate: 0.01,
                faults: Some(plan.for_partition(&members)),
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
            LiveTables::new(tables),
            SeaweedConfig {
                seed: shard_seed,
                ..Default::default()
            },
        );
        for (l, &g) in members.iter().enumerate() {
            eng.schedule_up(Time(1 + u64::from(g) * 300_000), NodeIdx(l as u32));
        }
        let app = FedShard::new(
            sw,
            p as u32,
            PARTS as u32,
            pmap.lookahead,
            schedule,
            "SELECT SUM(v) FROM T WHERE flag = 1",
            Duration::from_hours(4),
            schema.clone(),
        );
        (eng, app)
    };
    let finish = |p: usize, eng: SeaweedEngine, app: FedShard| {
        let oracle = ChaosOracle::new(pmap.members[p].len() as u64);
        let violations = oracle.check(&app.sw, &eng);
        ShardResult {
            events: app.events,
            rows: app.local_rows(),
            merged_rows: app.merged_rows,
            reports_received: app.reports_received,
            duplicated: eng.messages_duplicated,
            report: format!("{:?}", eng.finish()),
            violations,
        }
    };
    run_partitioned(&cfg, pmap.lookahead, secs(1500), build, finish)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// 32-seed chaos sweep under `ExecKind::Parallel`: oracle-clean in
    /// every shard and byte-identical to `Serial`.
    #[test]
    fn federated_chaos_parallel_is_clean_and_serial_identical(seed in 0u64..10_000) {
        let parallel = run_federated(seed, ExecKind::Parallel);
        for (p, r) in parallel.iter().enumerate() {
            prop_assert!(
                r.violations.is_empty(),
                "oracle violations in shard {p} (seed {seed}):\n  {}",
                r.violations.join("\n  ")
            );
        }
        // The root heard from every other shard.
        prop_assert_eq!(parallel[0].reports_received, PARTS as u32 - 1);
        // Chaos actually fired inside the shards.
        let dup: u64 = parallel.iter().map(|r| r.duplicated).sum();
        prop_assert!(dup > 0, "no duplicated messages anywhere (seed {seed})");

        let serial = run_federated(seed, ExecKind::Serial);
        prop_assert_eq!(&parallel, &serial, "parallel vs serial (seed {})", seed);
    }
}

/// `(seed, hash)`: FNV of the `Debug` rendering of a serial run's
/// per-shard results, captured when the `BTreeMap` hot-state layout
/// still existed and agreed with the arena layout on it.
const GOLDENS: [(u64, u64); 3] = [
    (1, 0x314f_85e8_0fcf_c1fd),
    (7, 0xb2de_f6bc_0589_5977),
    (42, 0x87ac_c09c_7a7b_10d6),
];

#[test]
fn federated_chaos_matches_goldens() {
    let got: Vec<(u64, u64)> = GOLDENS
        .iter()
        .map(|&(seed, _)| {
            let shards = run_federated(seed, ExecKind::Serial);
            (seed, fnv_str(&format!("{shards:?}")))
        })
        .collect();
    assert_eq!(
        got, GOLDENS,
        "federated runs diverged from the goldens: {got:#x?}"
    );
}
