//! Shared harness for the core integration tests: the 36-endsystem
//! CorpNet world, the chaos fault plan it runs under, and the one
//! event-log fingerprint every golden in this directory is computed
//! with.

// Each test binary compiles this module and uses a different subset.
#![allow(dead_code)]

use seaweed_core::{LiveTables, Seaweed, SeaweedConfig, SeaweedEngine, SeaweedMsg};
use seaweed_overlay::{Overlay, OverlayConfig, OverlayMsg};
use seaweed_sim::{
    CorpNetTopology, CrashSpec, Engine, Event, FaultPlan, LinkFaultSpec, NodeIdx, OutageSpec,
    PartitionSpec, SimConfig, Topology, TraceConfig,
};
use seaweed_store::{ColumnDef, DataType, Schema, Table, Value};
use seaweed_types::{Duration, Time};

pub const N: usize = 36;
pub const ROUTERS: usize = 24;
/// Query injection time; all fault windows are anchored after it.
pub const T0: Time = Time(600_000_000);
/// Checkpoints straddling every fault window: mid-partition/outage,
/// post-crash-rejoin, post-heal, and converged.
pub const CHECKPOINTS: [u64; 5] = [650, 720, 800, 1000, 1500];

pub fn secs(s: u64) -> Time {
    Time::from_secs(s)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= u64::from(*b);
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

/// FNV-1a of a whole string (used for `Debug` renderings of reports).
pub fn fnv_str(s: &str) -> u64 {
    let mut hash = FNV_OFFSET;
    fnv(&mut hash, s.as_bytes());
    hash
}

/// FNV-1a fingerprint over a compact per-event descriptor. Payload
/// contents are excluded; ordering, endpoints and timestamps pin the
/// schedule bit-for-bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventLog {
    pub hash: u64,
    pub len: u64,
}

impl EventLog {
    pub fn new() -> Self {
        EventLog {
            hash: FNV_OFFSET,
            len: 0,
        }
    }

    fn add(&mut self, t: Time, ev: &Event<OverlayMsg<SeaweedMsg>>) {
        let t = t.as_micros();
        let desc = match *ev {
            Event::Message { from, to, .. } => format!("m:{t}:{}:{}", from.0, to.0),
            Event::Timer { node, tag } => format!("t:{t}:{}:{tag}", node.0),
            Event::NodeUp { node } => format!("u:{t}:{}", node.0),
            Event::NodeDown { node } => format!("d:{t}:{}", node.0),
            Event::NodeCrash { node } => format!("c:{t}:{}", node.0),
            Event::PartitionStart { partition } => format!("ps:{t}:{partition}"),
            Event::PartitionEnd { partition } => format!("pe:{t}:{partition}"),
        };
        fnv(&mut self.hash, desc.as_bytes());
        self.len += 1;
    }
}

/// Dispatches every event up to `horizon`, fingerprinting each one.
pub fn drive_logged(
    eng: &mut SeaweedEngine,
    sw: &mut Seaweed<LiveTables>,
    horizon: Time,
    log: &mut EventLog,
) {
    while let Some((t, ev)) = eng.next_event_before(horizon) {
        log.add(t, &ev);
        sw.dispatch(eng, ev);
    }
}

/// Dispatches every event up to `horizon`.
pub fn drive(eng: &mut SeaweedEngine, sw: &mut Seaweed<LiveTables>, horizon: Time) {
    drive_logged(eng, sw, horizon, &mut EventLog::new());
}

/// `T(flag INT, v INT)`, the table every scenario here queries.
pub fn schema() -> Schema {
    Schema::new(
        "T",
        vec![
            ColumnDef::new("flag", DataType::Int, true),
            ColumnDef::new("v", DataType::Int, true),
        ],
    )
}

/// One fragment per endsystem holding `rows_per_node` rows, all with
/// `flag = 1` and `v = node + r + 1`.
fn tables(schema: &Schema, n: usize, rows_per_node: usize) -> Vec<Table> {
    (0..n)
        .map(|node| {
            let mut t = Table::new(schema.clone());
            for r in 0..rows_per_node {
                t.insert(vec![Value::Int(1), Value::Int((node + r) as i64 + 1)])
                    .unwrap();
            }
            t
        })
        .collect()
}

/// Builds the fault plan from the topology's structure: cut the regional
/// router with the largest subtree, take the biggest branch down with
/// amnesia, degrade one router pair, and crash two bystanders.
pub fn chaos_plan(topo: &CorpNetTopology) -> FaultPlan {
    let regional = (topo.num_core()..topo.num_core() + topo.num_regional())
        .max_by_key(|&r| topo.subtree_endsystems(r).len())
        .unwrap();
    let partition = PartitionSpec::from_router_cut(topo, regional, secs(602), secs(780));
    let branch = topo
        .branch_routers()
        .max_by_key(|&r| topo.subtree_endsystems(r).len())
        .unwrap();
    let outage = OutageSpec::branch_outage(topo, branch, secs(640), secs(700), true);

    // Two bystander crashes, disjoint from the partition and the outage
    // (overlap is legal, but disjointness keeps every fault observable)
    // and sparing the origin (node 0).
    let bystanders = bystanders(topo, &partition, &outage, &[0]);
    let crashes = vec![
        CrashSpec {
            node: NodeIdx(bystanders[0]),
            at: secs(630),
            rejoin_after: Duration::from_secs(60),
        },
        CrashSpec {
            node: NodeIdx(bystanders[1]),
            at: secs(690),
            rejoin_after: Duration::from_secs(45),
        },
    ];
    plan_with(topo, partition, outage, crashes)
}

/// The chaos plan in global index space for a federated run: the same
/// fault classes, but every shard origin (each partition's local node 0)
/// is spared from the outage and the crashes, so query injection always
/// has a live origin. Each shard receives its projection via
/// [`FaultPlan::for_partition`].
pub fn federated_chaos_plan(topo: &CorpNetTopology, origins: &[u32]) -> FaultPlan {
    let regional = (topo.num_core()..topo.num_core() + topo.num_regional())
        .max_by_key(|&r| topo.subtree_endsystems(r).len())
        .unwrap();
    let partition = PartitionSpec::from_router_cut(topo, regional, secs(602), secs(780));
    let branch = topo
        .branch_routers()
        .max_by_key(|&r| {
            topo.subtree_endsystems(r)
                .iter()
                .filter(|e| !origins.contains(e))
                .count()
        })
        .unwrap();
    let mut outage = OutageSpec::branch_outage(topo, branch, secs(640), secs(700), true);
    outage.members.retain(|m| !origins.contains(m));
    let crashes = bystanders(topo, &partition, &outage, origins)
        .iter()
        .enumerate()
        .map(|(i, &b)| CrashSpec {
            node: NodeIdx(b),
            at: secs(630 + 60 * i as u64),
            rejoin_after: Duration::from_secs(60),
        })
        .collect();
    plan_with(topo, partition, outage, crashes)
}

/// The first two endsystems outside the partition, the outage and
/// `spared`.
fn bystanders(
    topo: &CorpNetTopology,
    partition: &PartitionSpec,
    outage: &OutageSpec,
    spared: &[u32],
) -> Vec<u32> {
    (0..topo.num_endsystems() as u32)
        .filter(|m| {
            !spared.contains(m) && !partition.members.contains(m) && !outage.members.contains(m)
        })
        .take(2)
        .collect()
}

/// Completes a plan: one degraded router pair plus duplication and
/// reordering on top of the given partition, outage and crashes.
fn plan_with(
    topo: &CorpNetTopology,
    partition: PartitionSpec,
    outage: OutageSpec,
    crashes: Vec<CrashSpec>,
) -> FaultPlan {
    let za = topo.router_of(NodeIdx(1)) as u32;
    let mut zb = topo.router_of(NodeIdx(2)) as u32;
    if zb == za {
        zb = topo.router_of(NodeIdx(3)) as u32;
    }
    FaultPlan {
        partitions: vec![partition],
        link_faults: vec![LinkFaultSpec {
            zone_a: za,
            zone_b: zb,
            from: secs(600),
            until: secs(720),
            extra_loss: 0.15,
            latency_mult: 3.0,
        }],
        crashes,
        outages: vec![outage],
        dup_rate: 0.02,
        reorder_window: Duration::from_millis(50),
    }
}

/// One [`N`]-endsystem CorpNet world. Every seed-taking component is
/// seeded from `seed`; the seeds inside `overlay` and `seaweed` are
/// overwritten.
pub struct World {
    pub seed: u64,
    pub rows_per_node: usize,
    /// The full [`chaos_plan`] plus 1% uniform loss; otherwise a
    /// fault-free, loss-free network.
    pub chaos: bool,
    pub trace: bool,
    pub overlay: OverlayConfig,
    pub seaweed: SeaweedConfig,
}

impl World {
    /// The chaos world with one row per endsystem and default protocol
    /// configuration.
    pub fn new(seed: u64) -> Self {
        World {
            seed,
            rows_per_node: 1,
            chaos: true,
            trace: false,
            overlay: OverlayConfig::default(),
            seaweed: SeaweedConfig::default(),
        }
    }

    /// Builds the engine (all endsystems scheduled to boot staggered
    /// 300 ms apart) and the protocol stack over it.
    pub fn build(&self) -> (SeaweedEngine, Seaweed<LiveTables>, Schema) {
        let seed = self.seed;
        let schema = schema();
        let tables = tables(&schema, N, self.rows_per_node);
        let topo = CorpNetTopology::with_params(N, ROUTERS, Duration::MILLISECOND, seed);
        let faults = self.chaos.then(|| chaos_plan(&topo));
        let mut eng: SeaweedEngine = Engine::new(
            Box::new(topo),
            SimConfig {
                seed,
                loss_rate: if self.chaos { 0.01 } else { 0.0 },
                faults,
                trace: self.trace.then(TraceConfig::default),
                ..SimConfig::default()
            },
        );
        for i in 0..N {
            eng.schedule_up(Time(1 + i as u64 * 300_000), NodeIdx(i as u32));
        }
        let overlay = Overlay::new(
            Overlay::random_ids(N, seed),
            OverlayConfig {
                seed,
                ..self.overlay.clone()
            },
        );
        let sw = Seaweed::new(
            overlay,
            LiveTables::new(tables),
            SeaweedConfig {
                seed,
                ..self.seaweed.clone()
            },
        );
        (eng, sw, schema)
    }
}
