//! Pins `SelectionKind::IdOrder` (with hedging off) byte-identical to
//! the pre-hedging protocol.
//!
//! The tail-tolerance PR threads replica selection and hedging hooks
//! through the dissemination hot path. `IdOrder` with `hedge: None` is
//! the documented equivalence baseline: the full chaos-plan event log
//! (every message, timer fire, lifecycle and partition event, in order)
//! and the engine's `BandwidthReport` must match the fingerprints
//! captured on the commit *before* the hooks existed.

mod common;

use common::{drive_logged, fnv_str, secs, EventLog, World, CHECKPOINTS, N, T0};
use seaweed_core::{ChaosOracle, SeaweedConfig};
use seaweed_overlay::{OverlayConfig, SelectionKind};
use seaweed_sim::NodeIdx;
use seaweed_types::Duration;

/// `(seed, log_hash, log_len, rows, report_hash)`. Seeds 7, 11 and 42
/// were captured on the pre-hedging commit; the rest on the last commit
/// that still carried the binary-heap scheduler and the `BTreeMap`
/// hot-state layout, where both the default (timer wheel, arena) and
/// the retired pair (heap, map) produced them.
const GOLDENS: [(u64, u64, u64, u64, u64); 6] = [
    (7, 0x9ebd_982a_ec0c_f660, 6096, 36, 0xbaea_e313_3c4c_8013),
    (11, 0x7fda_8683_716a_b886, 5776, 36, 0xc341_d795_713c_1959),
    (42, 0x125f_a26f_3e0b_1728, 5822, 36, 0xff09_8794_8e10_b2de),
    (3, 0xa00c_0c63_98b6_2ed7, 5695, 36, 0x7b4f_8d3a_45fc_cbd8),
    (17, 0xc543_4e43_89b5_4e5e, 5936, 36, 0x8db2_1372_c63f_4441),
    (1000, 0xcc64_b96a_e028_b4d0, 5767, 36, 0x4dcc_ef84_e7f1_2f37),
];

/// Runs the chaos scenario and returns `(log_hash, log_len, rows,
/// report_hash)` — the same fingerprint the goldens were captured with.
fn run(seed: u64) -> (u64, u64, u64, u64) {
    let (mut eng, mut sw, schema) = World {
        // Explicit, not via Default: the equivalence claim is about
        // this variant, whatever the default becomes later.
        overlay: OverlayConfig {
            selection: SelectionKind::IdOrder,
            ..OverlayConfig::default()
        },
        seaweed: SeaweedConfig {
            hedge: None,
            ..SeaweedConfig::default()
        },
        ..World::new(seed)
    }
    .build();
    let mut log = EventLog::new();
    drive_logged(&mut eng, &mut sw, T0, &mut log);
    assert_eq!(sw.overlay.num_joined(), N);
    sw.inject_query(
        &mut eng,
        NodeIdx(0),
        "SELECT SUM(v) FROM T WHERE flag = 1",
        Duration::from_hours(4),
        &schema,
    )
    .unwrap();
    let oracle = ChaosOracle::new(N as u64);
    for t in CHECKPOINTS {
        drive_logged(&mut eng, &mut sw, secs(t), &mut log);
        oracle.assert_clean(&sw, &eng);
    }
    // With hedging off, the tail-tolerance machinery must be fully
    // inert: no hedges, no wasted bytes (also oracle-enforced).
    assert_eq!(sw.stats.hedges_sent, 0);
    assert_eq!(sw.stats.hedge_wasted_bytes, 0);
    let rows = sw.query(0).rows();
    let report_hash = fnv_str(&format!("{:?}", eng.finish()));
    (log.hash, log.len, rows, report_hash)
}

/// The hard pin: every seed reproduces its golden fingerprint exactly.
#[test]
fn id_order_matches_goldens() {
    let got: Vec<_> = GOLDENS
        .iter()
        .map(|&(seed, ..)| {
            let (log_hash, log_len, rows, report_hash) = run(seed);
            (seed, log_hash, log_len, rows, report_hash)
        })
        .collect();
    assert_eq!(
        got, GOLDENS,
        "fingerprints diverged from the goldens: {got:#x?}"
    );
}
