//! The discrete-event engine.
//!
//! The engine owns the clock, the event queue, node liveness, the topology
//! and the bandwidth recorder. The *application* (Pastry + Seaweed stacked
//! per node) owns all protocol state and drives the loop:
//!
//! ```ignore
//! while let Some((now, ev)) = engine.next_event_before(horizon) {
//!     match ev {
//!         Event::Message { from, to, payload } => app.on_message(&mut engine, ...),
//!         Event::Timer { node, tag } => app.on_timer(&mut engine, ...),
//!         Event::NodeUp { node } => app.on_up(&mut engine, node),
//!         Event::NodeDown { node } => app.on_down(&mut engine, node),
//!     }
//! }
//! ```
//!
//! Determinism: events at equal times are delivered in the order they were
//! scheduled (a monotone sequence number breaks ties), and all randomness
//! (message loss) comes from a seeded RNG.
//!
//! The event queue is a hierarchical timer wheel: O(1) schedule and
//! cancel, no comparison sorting, and delivery in exact `(time, seq)`
//! order — the order every golden fingerprint in the test suites pins.
//!
//! Timers are first-class cancellable: [`Engine::set_timer`] returns a
//! [`TimerHandle`], [`Engine::cancel_timer`] disarms it, and every timer a
//! node armed with `set_timer` is cancelled automatically when the node
//! goes down — protocol code no longer needs incarnation counters to
//! suppress timers leaking across availability sessions. Bookkeeping
//! timers that must survive churn (e.g. a query's TTL at its origin) use
//! [`Engine::set_detached_timer`].

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seaweed_types::{Duration, Time};

use crate::bandwidth::{BandwidthRecorder, BandwidthReport, DropStats, TrafficClass, NUM_CLASSES};
use crate::faults::{FaultInjector, FaultPlan, LinkEffect};
use crate::metrics::MetricsRegistry;
use crate::topology::Topology;
use crate::trace::{DropCause, TraceConfig, TraceEvent, Tracer};

/// Hasher for internal `u64` sequence numbers (timer metadata,
/// cancellation tombstones). These maps sit on the per-event hot path
/// and their keys are trusted monotone counters, so SipHash's collision
/// resistance buys nothing — a single multiply + rotate does.
#[derive(Default, Clone)]
struct SeqHasher(u64);

impl std::hash::Hasher for SeqHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_right(31);
    }
}

type SeqBuild = std::hash::BuildHasherDefault<SeqHasher>;
type SeqMap<V> = HashMap<u64, V, SeqBuild>;
type SeqSet = HashSet<u64, SeqBuild>;

/// Dense index of an endsystem in the simulation (not its Pastry id).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeIdx(pub u32);

impl NodeIdx {
    #[must_use]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// A message payload travelling through the engine: either owned by the
/// single in-flight copy, or shared (`Rc`-backed) between several — the
/// fan-out and fault-duplication paths hand every queued copy the same
/// allocation instead of deep-cloning per destination. The DES is
/// single-threaded (lint rule D004), so `Rc` suffices.
///
/// The envelope is transparent: it `Deref`s to the payload for reads and
/// its `Debug` output is exactly the inner payload's, so event-log
/// fingerprints are byte-identical to the historical by-value
/// representation. Consumers that need ownership call
/// [`Payload::into_owned`], which only clones when other in-flight
/// copies still share the allocation.
pub enum Payload<M> {
    /// The only copy; moving it out is free.
    Owned(M),
    /// One of several copies sharing an allocation.
    Shared(Rc<M>),
}

thread_local! {
    /// Deep clones taken by the [`Payload::into_owned`] fallback when the
    /// allocation was still shared. The DES is single-threaded (lint rule
    /// D004) and `into_owned` has no engine handle, so a thread-local is
    /// the one place this can be counted; it accumulates monotonically
    /// across every engine on the thread.
    static PAYLOAD_FALLBACK_CLONES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Running count (this thread) of deep clones the [`Payload::into_owned`]
/// fallback has taken — each one is a fan-out copy consumed by value while
/// sibling copies were still queued. Single-destination sends always carry
/// [`Payload::Owned`], so this counts only genuine shared-consumption, the
/// regression class lint rule D007 exists to catch.
#[must_use]
pub fn payload_fallback_clones() -> u64 {
    PAYLOAD_FALLBACK_CLONES.with(std::cell::Cell::get)
}

thread_local! {
    /// Deep clones taken by [`Payload::into_owned_remote`] when handing a
    /// still-shared payload across a partition boundary. Cross-partition
    /// envelopes must own their payload (`Rc` cannot cross threads), so
    /// these clones are the structural price of a partition cut — counted
    /// separately from [`PAYLOAD_FALLBACK_CLONES`] so intra-partition
    /// fan-out regressions stay visible underneath it.
    static PAYLOAD_CROSS_PARTITION_CLONES: std::cell::Cell<u64> =
        const { std::cell::Cell::new(0) };
}

/// Running count (this thread) of deep clones taken to move a shared
/// payload across a partition boundary. Zero in any single-partition run;
/// under [`crate::exec`] it measures how much fan-out sharing the
/// partition cut forfeits.
#[must_use]
pub fn payload_cross_partition_clones() -> u64 {
    PAYLOAD_CROSS_PARTITION_CLONES.with(std::cell::Cell::get)
}

impl<M> Payload<M> {
    /// Extracts the payload, cloning only if the allocation is still
    /// shared with other queued copies (the last copy out is free).
    #[must_use]
    pub fn into_owned(self) -> M
    where
        M: Clone,
    {
        match self {
            Payload::Owned(m) => m,
            Payload::Shared(rc) => Rc::try_unwrap(rc).unwrap_or_else(|rc| {
                PAYLOAD_FALLBACK_CLONES.with(|c| c.set(c.get() + 1));
                (*rc).clone()
            }),
        }
    }

    /// Extracts the payload for a cross-partition send. Identical to
    /// [`Payload::into_owned`] except that a forced deep clone is counted
    /// in [`payload_cross_partition_clones`] instead of the fan-out
    /// fallback counter: crossing a thread boundary *requires* ownership,
    /// so the clone is a property of the partition cut, not a sharing
    /// regression.
    #[must_use]
    pub fn into_owned_remote(self) -> M
    where
        M: Clone,
    {
        match self {
            Payload::Owned(m) => m,
            Payload::Shared(rc) => Rc::try_unwrap(rc).unwrap_or_else(|rc| {
                PAYLOAD_CROSS_PARTITION_CLONES.with(|c| c.set(c.get() + 1));
                (*rc).clone()
            }),
        }
    }

    /// Converts into the shared representation without touching the
    /// payload itself (an owned payload is boxed into a fresh `Rc`).
    #[must_use]
    pub fn into_rc(self) -> Rc<M> {
        match self {
            Payload::Owned(m) => Rc::new(m),
            Payload::Shared(rc) => rc,
        }
    }
}

impl<M> std::ops::Deref for Payload<M> {
    type Target = M;

    fn deref(&self) -> &M {
        match self {
            Payload::Owned(m) => m,
            Payload::Shared(rc) => rc,
        }
    }
}

/// Transparent: prints exactly as the inner payload would, so Debug-based
/// event-log fingerprints cannot tell owned from shared.
impl<M: std::fmt::Debug> std::fmt::Debug for Payload<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// An event delivered to the application.
#[derive(Debug)]
pub enum Event<M> {
    /// A network message arrived at `to`. The payload envelope is
    /// transparent for reads ([`Payload`] derefs to `M`); call
    /// [`Payload::into_owned`] to take ownership.
    Message {
        from: NodeIdx,
        to: NodeIdx,
        payload: Payload<M>,
    },
    /// A timer fired. `tag` is whatever was passed to
    /// [`Engine::set_timer`] / [`Engine::set_detached_timer`]. A regular
    /// timer only fires while its node is up and is cancelled when the
    /// node goes down, so a fired timer is never stale.
    Timer { node: NodeIdx, tag: u64 },
    /// `node` just became available (liveness already updated).
    NodeUp { node: NodeIdx },
    /// `node` just became unavailable (liveness already updated; its
    /// queued messages are dropped on delivery and its regular timers
    /// have been cancelled).
    NodeDown { node: NodeIdx },
    /// `node` just crashed with amnesia: it is down (same engine
    /// semantics as [`Event::NodeDown`]) and the application must wipe
    /// its soft state — when it comes back up it remembers nothing it
    /// had not persisted. Injected by a [`FaultPlan`].
    NodeCrash { node: NodeIdx },
    /// Fault-plan partition `partition` just came into force: its member
    /// set and the rest of the network are mutually unreachable (sends
    /// across the cut are dropped) until the matching
    /// [`Event::PartitionEnd`].
    PartitionStart { partition: u32 },
    /// Fault-plan partition `partition` just healed.
    PartitionEnd { partition: u32 },
}

enum Pending<M> {
    Message {
        from: NodeIdx,
        to: NodeIdx,
        payload: Payload<M>,
        size: u32,
        class: TrafficClass,
    },
    Timer {
        node: NodeIdx,
        tag: u64,
    },
    NodeUp {
        node: NodeIdx,
    },
    NodeDown {
        node: NodeIdx,
    },
    NodeCrash {
        node: NodeIdx,
    },
    PartitionStart {
        partition: u32,
    },
    PartitionEnd {
        partition: u32,
    },
}

struct Queued<M> {
    at: Time,
    seq: u64,
    pending: Pending<M>,
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Seed for all engine-internal randomness (message loss).
    pub seed: u64,
    /// Uniform probability that any network message is lost in flight.
    /// MSPastry is evaluated in the paper with rates up to 5%.
    pub loss_rate: f64,
    /// Collect per-(node,hour) bandwidth samples for CDFs (Figure 9(b)).
    pub collect_cdf: bool,
    /// Optional deterministic fault schedule (partitions, link
    /// degradation, crash-amnesia, correlated outages, dup/reorder).
    /// `None` injects nothing and changes nothing.
    pub faults: Option<FaultPlan>,
    /// Optional event tracing (see [`crate::trace`]). Tracing is purely
    /// observational — it cannot perturb event order — and is ignored
    /// entirely when the `trace` cargo feature is disabled.
    pub trace: Option<TraceConfig>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            loss_rate: 0.0,
            collect_cdf: false,
            faults: None,
            trace: None,
        }
    }
}

// ------------------------------------------------------------------ wheel

/// RNG stream constant for the engine's own draws — loss, duplication,
/// latency jitter (registered in lint.toml `[[stream]]`).
const ENGINE_STREAM: u64 = 0xe791_e5ee_d000_0001;

const LEVEL_BITS: u32 = 6;
const SLOTS: usize = 1 << LEVEL_BITS; // 64
/// 11 levels × 6 bits = 66 bits, covering the full µs-time range.
const LEVELS: usize = 11;

/// A hierarchical timing wheel over microsecond timestamps.
///
/// Level `l` has 64 slots of width `64^l` µs. An entry lives at the
/// highest level where its timestamp differs from the cursor — i.e. slot
/// index `(at >> 6l) & 63` at level `l = msb(at ^ cursor) / 6` — and
/// cascades toward level 0 as the cursor approaches it. A level-0 slot
/// within the cursor's 64 µs window holds exactly one timestamp, so
/// draining a slot and sorting it by sequence number yields the global
/// `(time, seq)` delivery order.
struct TimerWheel<M> {
    /// Time of the most recently drained slot; all stored entries have
    /// `at >= cursor`.
    cursor: u64,
    /// Per-level occupancy bitmaps (bit = slot non-empty).
    occ: [u64; LEVELS],
    /// `LEVELS × SLOTS` flattened slot vectors.
    slots: Vec<Vec<Queued<M>>>,
    /// Entries at exactly `cursor`, sorted by seq, being handed out.
    current: VecDeque<Queued<M>>,
    /// Scratch buffer reused across cascades to avoid reallocating.
    cascade_buf: Vec<Queued<M>>,
    /// Sequence numbers cancelled while still parked in a slot. Purged
    /// when the slot is next touched (cascade, drain or peek), so a
    /// cancellation costs O(1) instead of a scan of an arbitrarily large
    /// high-level slot.
    cancelled: SeqSet,
    /// Live entries only — tombstoned ones are already excluded.
    len: usize,
}

impl<M> TimerWheel<M> {
    fn new() -> Self {
        TimerWheel {
            cursor: 0,
            occ: [0; LEVELS],
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            current: VecDeque::new(),
            cascade_buf: Vec::new(),
            cancelled: SeqSet::default(),
            len: 0,
        }
    }

    /// Drops tombstoned entries from one slot.
    fn purge_slot(cancelled: &mut SeqSet, slot: &mut Vec<Queued<M>>) {
        if !cancelled.is_empty() {
            slot.retain(|e| !cancelled.remove(&e.seq));
        }
    }

    /// (level, slot) the entry belongs to, relative to the current cursor.
    fn level_slot(&self, at: u64) -> (usize, usize) {
        let d = at ^ self.cursor;
        if d == 0 {
            (0, (at & 63) as usize)
        } else {
            let level = ((63 - d.leading_zeros()) / LEVEL_BITS) as usize;
            (level, ((at >> (LEVEL_BITS as usize * level)) & 63) as usize)
        }
    }

    fn insert_at(&mut self, e: Queued<M>) {
        debug_assert!(e.at.0 >= self.cursor, "wheel insert into the past");
        let (l, s) = self.level_slot(e.at.0);
        self.slots[l * SLOTS + s].push(e);
        self.occ[l] |= 1u64 << s;
    }

    fn push(&mut self, e: Queued<M>) {
        self.len += 1;
        self.insert_at(e);
    }

    fn pop(&mut self) -> Option<Queued<M>> {
        loop {
            if let Some(e) = self.current.pop_front() {
                self.len -= 1;
                return Some(e);
            }
            if !self.advance() {
                return None;
            }
        }
    }

    /// Drains the earliest occupied slot into `current` (sorted by seq),
    /// cascading higher levels as needed. Returns false when empty.
    fn advance(&mut self) -> bool {
        loop {
            // Level 0. The cursor's own slot is included: pushes at
            // exactly the current time land there after the slot was
            // drained, and must still be delivered.
            let idx0 = (self.cursor & 63) as u32;
            let m = self.occ[0] & (!0u64 << idx0);
            if m != 0 {
                let s = m.trailing_zeros();
                let t = (self.cursor & !63) | u64::from(s);
                self.cursor = t;
                self.occ[0] &= !(1u64 << s);
                let slot = &mut self.slots[s as usize];
                debug_assert!(slot.iter().all(|e| e.at.0 == t));
                Self::purge_slot(&mut self.cancelled, slot);
                self.current.extend(slot.drain(..));
                self.current
                    .make_contiguous()
                    .sort_unstable_by_key(|e| e.seq);
                if self.current.is_empty() {
                    continue; // the slot held only tombstones
                }
                return true;
            }
            // Higher levels: jump to the next occupied slot strictly
            // after the cursor's position and cascade it down. Everything
            // in that slot lands at a lower level relative to the new
            // cursor (its slot base), so the search restarts at level 0.
            let mut cascaded = false;
            for l in 1..LEVELS {
                let shift = LEVEL_BITS as usize * l;
                let idx = ((self.cursor >> shift) & 63) as u32;
                let m = if idx >= 63 {
                    0
                } else {
                    self.occ[l] & (!0u64 << (idx + 1))
                };
                if m == 0 {
                    continue;
                }
                let s = u64::from(m.trailing_zeros());
                let parent_shift = LEVEL_BITS as usize * (l + 1);
                let base = if parent_shift >= 64 {
                    0
                } else {
                    self.cursor & !((1u64 << parent_shift) - 1)
                };
                self.cursor = base | (s << shift);
                self.occ[l] &= !(1u64 << s);
                let mut buf = std::mem::take(&mut self.cascade_buf);
                std::mem::swap(&mut buf, &mut self.slots[l * SLOTS + s as usize]);
                for e in buf.drain(..) {
                    if self.cancelled.remove(&e.seq) {
                        continue;
                    }
                    self.insert_at(e);
                }
                self.cascade_buf = buf;
                cascaded = true;
                break;
            }
            if !cascaded {
                return false;
            }
        }
    }

    /// Timestamp of the earliest live entry, without advancing the
    /// cursor. Purges tombstones from the slots it inspects so the
    /// reported time is exact.
    fn peek_at(&mut self) -> Option<Time> {
        'restart: loop {
            if let Some(e) = self.current.front() {
                return Some(e.at);
            }
            if self.len == 0 {
                return None;
            }
            let idx0 = (self.cursor & 63) as u32;
            let mut m = self.occ[0] & (!0u64 << idx0);
            while m != 0 {
                let s = m.trailing_zeros();
                let slot = &mut self.slots[s as usize];
                Self::purge_slot(&mut self.cancelled, slot);
                if let Some(e) = slot.first() {
                    return Some(e.at);
                }
                self.occ[0] &= !(1u64 << s);
                m &= !(1u64 << s);
            }
            for l in 1..LEVELS {
                let shift = LEVEL_BITS as usize * l;
                let idx = ((self.cursor >> shift) & 63) as u32;
                let m = if idx >= 63 {
                    0
                } else {
                    self.occ[l] & (!0u64 << (idx + 1))
                };
                if m != 0 {
                    let s = m.trailing_zeros() as usize;
                    let slot = &mut self.slots[l * SLOTS + s];
                    Self::purge_slot(&mut self.cancelled, slot);
                    if slot.is_empty() {
                        self.occ[l] &= !(1u64 << s);
                        continue 'restart;
                    }
                    // The slot spans 64^l µs; its earliest entry is the min.
                    return slot.iter().map(|e| e.at).min();
                }
            }
            debug_assert!(false, "len > 0 but no occupied slot");
            return None;
        }
    }

    /// Removes the entry `(at, seq)`. Entries already drained into the
    /// `current` batch are removed directly; anything still parked in a
    /// slot is tombstoned in O(1) and physically dropped the next time
    /// its slot is cascaded, drained or peeked. The caller (the engine's
    /// per-timer metadata) guarantees the entry is actually pending.
    fn cancel(&mut self, at: Time, seq: u64) -> bool {
        if at.0 == self.cursor {
            if let Some(pos) = self.current.iter().position(|e| e.seq == seq) {
                let _ = self.current.remove(pos);
                self.len -= 1;
                return true;
            }
        }
        if at.0 < self.cursor {
            return false;
        }
        self.cancelled.insert(seq);
        self.len -= 1;
        true
    }
}

// ----------------------------------------------------------------- engine

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TimerKind {
    /// Cancelled automatically when its node goes down.
    Auto,
    /// Survives its node's churn; fires regardless of liveness.
    Detached,
    /// A scheduling-quantum expiry: liveness-tied like `Auto` (a down
    /// node has no scan queue to pump), but metered separately so storm
    /// runs can report scheduler overhead next to protocol timers.
    Quantum,
}

/// Handle to a pending timer, returned by [`Engine::set_timer`] and
/// [`Engine::set_detached_timer`]. Cancelling a handle whose timer has
/// already fired or been cancelled is a harmless no-op.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimerHandle {
    node: NodeIdx,
    seq: u64,
    at: Time,
}

impl TimerHandle {
    /// The node the timer was armed for.
    #[must_use]
    pub fn node(self) -> NodeIdx {
        self.node
    }

    /// Absolute fire time.
    #[must_use]
    pub fn fires_at(self) -> Time {
        self.at
    }
}

/// The discrete-event engine. `M` is the application's message payload.
pub struct Engine<M> {
    now: Time,
    seq: u64,
    queue: TimerWheel<M>,
    topo: Box<dyn Topology>,
    up: Vec<bool>,
    /// Live node indices, ordered — keeps `num_up`/`up_nodes` O(live)
    /// instead of scanning every endsystem.
    live: BTreeSet<u32>,
    /// Per-node outstanding timers: seq → (fire time, kind).
    timer_meta: Vec<SeqMap<(Time, TimerKind)>>,
    recorder: BandwidthRecorder,
    rng: StdRng,
    loss_rate: f64,
    /// Fault-plan runtime, present only when [`SimConfig::faults`] was
    /// set. Every `send()` and node transition consults it.
    faults: Option<FaultInjector>,
    /// Event tracer, present only when [`SimConfig::trace`] was set *and*
    /// the `trace` cargo feature is enabled.
    tracer: Option<Tracer>,
    /// Count of messages dropped because the destination was down.
    pub dropped_dest_down: u64,
    /// Count of messages lost to simulated (uniform random) network loss.
    pub dropped_loss: u64,
    /// Count of messages dropped at a fault-plan partition cut.
    pub dropped_partition: u64,
    /// Count of messages dropped by a fault-plan link-degradation window.
    pub dropped_link_fault: u64,
    /// Count of extra copies delivered by fault-plan duplication.
    pub messages_duplicated: u64,
    /// Drops from *all* causes, bucketed by traffic class.
    pub drops_by_class: [u64; NUM_CLASSES],
    /// Total messages sent.
    pub messages_sent: u64,
    /// Timers disarmed before firing (explicitly or by node-down).
    pub timers_cancelled: u64,
    /// Quantum-class timers (scan-scheduler slices) that actually fired.
    pub quantum_timers_fired: u64,
    /// Events whose requested time lay in the past and were clamped to
    /// the current clock.
    pub clamped_to_now: u64,
    /// Application-level occurrence counters recorded through
    /// [`Engine::record_app_event`], keyed by the caller's event kind.
    /// Surfaced verbatim in [`Engine::metrics`].
    app_events: BTreeMap<&'static str, u64>,
}

/// Manual impl: `M` (the application payload) need not be `Debug`, and
/// the queue/topology internals are noise — summarize the run state.
impl<M> std::fmt::Debug for Engine<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("seq", &self.seq)
            .field("num_up", &self.live.len())
            .field("messages_sent", &self.messages_sent)
            .field("timers_cancelled", &self.timers_cancelled)
            .finish_non_exhaustive()
    }
}

impl<M> Engine<M> {
    /// Creates an engine over `topo`; all nodes start **down** — schedule
    /// [`Engine::schedule_up`] events (e.g. from an availability trace) to
    /// bring them up.
    #[must_use]
    pub fn new(topo: Box<dyn Topology>, config: SimConfig) -> Self {
        let n = topo.num_endsystems();
        #[cfg(feature = "trace")]
        let tracer = config.trace.as_ref().map(Tracer::new);
        #[cfg(not(feature = "trace"))]
        let tracer = None;
        let faults = config
            .faults
            .map(|plan| FaultInjector::new(plan, config.seed, n));
        let mut e = Engine {
            now: Time::ZERO,
            seq: 0,
            queue: TimerWheel::new(),
            topo,
            up: vec![false; n],
            live: BTreeSet::new(),
            timer_meta: vec![SeqMap::default(); n],
            recorder: BandwidthRecorder::new(n, config.collect_cdf),
            rng: StdRng::seed_from_u64(config.seed ^ ENGINE_STREAM),
            loss_rate: config.loss_rate,
            faults,
            tracer,
            dropped_dest_down: 0,
            dropped_loss: 0,
            dropped_partition: 0,
            dropped_link_fault: 0,
            messages_duplicated: 0,
            drops_by_class: [0; NUM_CLASSES],
            messages_sent: 0,
            timers_cancelled: 0,
            quantum_timers_fired: 0,
            clamped_to_now: 0,
            app_events: BTreeMap::new(),
        };
        e.schedule_fault_plan();
        e
    }

    /// Enqueues every time-triggered entry of the installed fault plan:
    /// partition start/heal markers, amnesia crashes (with their
    /// rejoins), and correlated outage bursts. Runs once, at
    /// construction, so plan events occupy a deterministic prefix of the
    /// sequence-number space.
    fn schedule_fault_plan(&mut self) {
        // Temporarily take the injector so `self.push` (which needs
        // `&mut self`) can run while we iterate the plan — no clone of
        // the whole plan just to appease the borrow checker.
        let Some(inj) = self.faults.take() else {
            return;
        };
        {
            let plan = inj.plan();
            for (i, p) in plan.partitions.iter().enumerate() {
                let idx = u32::try_from(i).expect("partition count fits u32");
                self.push(p.from, Pending::PartitionStart { partition: idx });
                self.push(p.until, Pending::PartitionEnd { partition: idx });
            }
            for c in &plan.crashes {
                self.push(c.at, Pending::NodeCrash { node: c.node });
                self.push(c.at + c.rejoin_after, Pending::NodeUp { node: c.node });
            }
            for o in &plan.outages {
                for &m in &o.members {
                    let node = NodeIdx(m);
                    if o.amnesia {
                        self.push(o.down_at, Pending::NodeCrash { node });
                    } else {
                        self.push(o.down_at, Pending::NodeDown { node });
                    }
                    self.push(o.up_at, Pending::NodeUp { node });
                }
            }
        }
        self.faults = Some(inj);
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of endsystems in the simulation.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.up.len()
    }

    /// Is `node` currently available?
    #[must_use]
    pub fn is_up(&self, node: NodeIdx) -> bool {
        self.up[node.idx()]
    }

    /// Number of currently available endsystems.
    #[must_use]
    pub fn num_up(&self) -> usize {
        self.live.len()
    }

    /// Iterator over currently available endsystems, in ascending index
    /// order.
    pub fn up_nodes(&self) -> impl Iterator<Item = NodeIdx> + '_ {
        self.live.iter().map(|&i| NodeIdx(i))
    }

    /// Records a trace event if tracing is active. The closure only runs
    /// in that case, so building the event costs nothing when tracing is
    /// configured off — and with the `trace` cargo feature disabled the
    /// whole call compiles away.
    #[cfg(feature = "trace")]
    #[inline]
    fn trace(&mut self, ev: impl FnOnce() -> TraceEvent) {
        if let Some(t) = &mut self.tracer {
            t.record(self.now, ev());
        }
    }

    #[cfg(not(feature = "trace"))]
    #[inline(always)]
    fn trace(&mut self, _ev: impl FnOnce() -> TraceEvent) {}

    /// Is a tracer attached and capturing? Always false with the `trace`
    /// feature disabled.
    #[must_use]
    pub fn tracing_active(&self) -> bool {
        cfg!(feature = "trace") && self.tracer.is_some()
    }

    /// The attached tracer, if tracing is active.
    #[must_use]
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Detaches and returns the tracer (e.g. to export its buffer before
    /// [`Engine::finish`] consumes the engine). Tracing stops.
    pub fn take_tracer(&mut self) -> Option<Tracer> {
        self.tracer.take()
    }

    /// Records an application-level occurrence: bumps the `kind` counter
    /// (surfaced via [`Engine::metrics`]) and, when tracing is active,
    /// appends an [`TraceEvent::AppEvent`] record attributed to `node`.
    /// Purely observational — never perturbs the schedule.
    pub fn record_app_event(&mut self, node: NodeIdx, kind: &'static str, detail: u64) {
        *self.app_events.entry(kind).or_insert(0) += 1;
        self.trace(|| TraceEvent::AppEvent { node, kind, detail });
    }

    /// Count recorded so far for an application event kind (zero if the
    /// kind was never recorded).
    #[must_use]
    pub fn app_event_count(&self, kind: &str) -> u64 {
        self.app_events.get(kind).copied().unwrap_or(0)
    }

    /// Enqueues an event, clamping requests dated before the current
    /// clock to `now` (counted in [`Engine::clamped_to_now`]) so callers
    /// computing absolute times from stale state cannot corrupt the
    /// delivery order. Returns the entry's sequence number and effective
    /// time.
    fn push(&mut self, at: Time, pending: Pending<M>) -> (u64, Time) {
        let at = if at < self.now {
            self.clamped_to_now += 1;
            self.now
        } else {
            at
        };
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Queued { at, seq, pending });
        (seq, at)
    }

    /// Sends a network message. Transmission bandwidth is charged to
    /// `from` immediately; reception to `to` at delivery (if it is still
    /// up and the message survives loss). `size` is the wire size in
    /// bytes; `class` selects the accounting bucket.
    ///
    /// The installed fault plan (if any) is consulted in a fixed order:
    /// partition cut, link-degradation window (extra loss, then latency
    /// multiplier), base random loss, reordering jitter, duplication.
    /// Without a plan the behaviour — including the engine RNG's draw
    /// sequence — is identical to the fault-free engine.
    pub fn send(&mut self, from: NodeIdx, to: NodeIdx, payload: M, size: u32, class: TrafficClass) {
        self.send_envelope(from, to, Payload::Owned(payload), size, class);
    }

    /// Sends one destination a payload that is (or may become) shared
    /// with other in-flight messages. Identical semantics and accounting
    /// to [`Engine::send`] — only the payload's ownership differs.
    pub fn send_shared(
        &mut self,
        from: NodeIdx,
        to: NodeIdx,
        payload: Rc<M>,
        size: u32,
        class: TrafficClass,
    ) {
        self.send_envelope(from, to, Payload::Shared(payload), size, class);
    }

    /// Fans one payload out to every destination in `dests` (in slice
    /// order) with a single allocation shared by all queued copies.
    /// Equivalent — byte-for-byte, including RNG draw order, sequence
    /// numbers, traces and bandwidth accounting — to calling
    /// [`Engine::send`] once per destination with a fresh clone.
    pub fn multicast(
        &mut self,
        from: NodeIdx,
        dests: &[NodeIdx],
        payload: M,
        size: u32,
        class: TrafficClass,
    ) {
        // A single destination needs no sharing: hand over ownership so
        // the consumer's `into_owned` can never hit the clone fallback.
        if let [to] = dests {
            self.send_envelope(from, *to, Payload::Owned(payload), size, class);
            return;
        }
        debug_assert!(
            dests.len() != 1,
            "single-destination delivery must take the owned path"
        );
        let rc = Rc::new(payload);
        for &to in dests {
            self.send_envelope(from, to, Payload::Shared(Rc::clone(&rc)), size, class);
        }
    }

    fn send_envelope(
        &mut self,
        from: NodeIdx,
        to: NodeIdx,
        payload: Payload<M>,
        size: u32,
        class: TrafficClass,
    ) {
        debug_assert!(self.up[from.idx()], "down node {from:?} tried to send");
        self.messages_sent += 1;
        self.recorder.record_tx(self.now, from.idx(), class, size);
        self.trace(|| TraceEvent::MessageSend {
            from,
            to,
            size,
            class,
        });
        let mut latency_mult = 1.0f64;
        if let Some(inj) = &mut self.faults {
            if !inj.reachable(from, to) {
                self.dropped_partition += 1;
                self.drops_by_class[class as usize] += 1;
                self.trace(|| TraceEvent::MessageDrop {
                    from,
                    to,
                    class,
                    cause: DropCause::Partition,
                });
                return;
            }
            let (za, zb) = (self.topo.zone_of(from), self.topo.zone_of(to));
            match inj.link_effect(self.now, za, zb) {
                LinkEffect::Drop => {
                    self.dropped_link_fault += 1;
                    self.drops_by_class[class as usize] += 1;
                    self.trace(|| TraceEvent::MessageDrop {
                        from,
                        to,
                        class,
                        cause: DropCause::LinkFault,
                    });
                    return;
                }
                LinkEffect::Delay(m) => latency_mult = m,
                LinkEffect::Pass => {}
            }
        }
        if self.loss_rate > 0.0 && self.rng.gen::<f64>() < self.loss_rate {
            self.dropped_loss += 1;
            self.drops_by_class[class as usize] += 1;
            self.trace(|| TraceEvent::MessageDrop {
                from,
                to,
                class,
                cause: DropCause::RandomLoss,
            });
            return;
        }
        let base = self.topo.one_way(from, to);
        let latency = if latency_mult == 1.0 {
            base
        } else {
            Duration::from_micros((base.as_micros() as f64 * latency_mult).round() as u64)
        };
        let mut jitter = Duration::ZERO;
        let mut duplicated = false;
        if let Some(inj) = &mut self.faults {
            jitter = inj.reorder_jitter();
            duplicated = inj.duplicate();
        }
        let payload = if duplicated {
            // The duplicate shares the original's allocation — no deep
            // clone of the payload, only a second reference.
            let rc = payload.into_rc();
            self.push(
                self.now + latency + jitter,
                Pending::Message {
                    from,
                    to,
                    payload: Payload::Shared(Rc::clone(&rc)),
                    size,
                    class,
                },
            );
            self.messages_duplicated += 1;
            self.trace(|| TraceEvent::MessageDuplicate { from, to, class });
            jitter = self
                .faults
                .as_mut()
                .map_or(Duration::ZERO, FaultInjector::reorder_jitter);
            Payload::Shared(rc)
        } else {
            payload
        };
        self.push(
            self.now + latency + jitter,
            Pending::Message {
                from,
                to,
                payload,
                size,
                class,
            },
        );
    }

    /// Can `a` currently reach `b`, given the open fault-plan
    /// partitions? Always true without a plan. Liveness is *not* part of
    /// this check — an up-but-unreachable node is exactly the case
    /// recovery code must distinguish from a dead one.
    #[must_use]
    pub fn reachable(&self, a: NodeIdx, b: NodeIdx) -> bool {
        self.faults.as_ref().is_none_or(|f| f.reachable(a, b))
    }

    /// Member set of fault-plan partition `partition` (as announced by
    /// [`Event::PartitionStart`] / [`Event::PartitionEnd`]).
    #[must_use]
    pub fn partition_members(&self, partition: u32) -> Vec<NodeIdx> {
        self.faults.as_ref().map_or_else(Vec::new, |f| {
            f.plan().partitions[partition as usize]
                .members
                .iter()
                .map(|&m| NodeIdx(m))
                .collect()
        })
    }

    /// Arms a timer for `node`, firing `delay` from now with `tag`. The
    /// timer is cancelled automatically if `node` goes down first, so it
    /// can never fire into a later availability session.
    pub fn set_timer(&mut self, node: NodeIdx, delay: Duration, tag: u64) -> TimerHandle {
        self.arm_timer(node, delay, tag, TimerKind::Auto)
    }

    /// Arms a timer that is *not* tied to `node`'s liveness: it survives
    /// the node going down and fires regardless of its state. Use for
    /// bookkeeping deadlines (e.g. query TTLs) that must hold across
    /// churn; cancel explicitly via the returned handle if needed.
    pub fn set_detached_timer(&mut self, node: NodeIdx, delay: Duration, tag: u64) -> TimerHandle {
        self.arm_timer(node, delay, tag, TimerKind::Detached)
    }

    /// Arms a scheduling-quantum timer for `node`: behaviorally an auto
    /// timer (node-down disarms it — a dead endsystem has no scan queue),
    /// but counted in [`Engine::quantum_timers_fired`] so storm runs can
    /// report scheduler pump overhead separately from protocol timers.
    pub fn set_quantum_timer(&mut self, node: NodeIdx, delay: Duration, tag: u64) -> TimerHandle {
        self.arm_timer(node, delay, tag, TimerKind::Quantum)
    }

    fn arm_timer(
        &mut self,
        node: NodeIdx,
        delay: Duration,
        tag: u64,
        kind: TimerKind,
    ) -> TimerHandle {
        let (seq, at) = self.push(self.now + delay, Pending::Timer { node, tag });
        self.timer_meta[node.idx()].insert(seq, (at, kind));
        self.trace(|| TraceEvent::TimerSet {
            node,
            tag,
            seq,
            at,
            detached: kind == TimerKind::Detached,
        });
        TimerHandle { node, seq, at }
    }

    /// Disarms a pending timer. Returns whether it was still pending
    /// (false if it already fired or was cancelled — a safe no-op).
    pub fn cancel_timer(&mut self, h: TimerHandle) -> bool {
        if self.timer_meta[h.node.idx()].remove(&h.seq).is_none() {
            return false;
        }
        let removed = self.queue.cancel(h.at, h.seq);
        debug_assert!(removed, "outstanding timer missing from queue");
        self.timers_cancelled += 1;
        self.trace(|| TraceEvent::TimerCancel {
            node: h.node,
            seq: h.seq,
            at: h.at,
        });
        true
    }

    /// Schedules `node` to become available at `at` (absolute time).
    pub fn schedule_up(&mut self, at: Time, node: NodeIdx) {
        self.push(at, Pending::NodeUp { node });
    }

    /// Schedules `node` to become unavailable at `at` (absolute time).
    pub fn schedule_down(&mut self, at: Time, node: NodeIdx) {
        self.push(at, Pending::NodeDown { node });
    }

    /// Timestamp of the earliest pending entry, or `None` when the queue
    /// is empty. The partitioned executor ([`crate::exec`]) publishes
    /// this after each window to compute the global lower bound the next
    /// window may start from.
    /// (`&mut` because peeking purges cancelled entries from the slots it
    /// inspects.)
    #[must_use]
    pub fn next_pending_at(&mut self) -> Option<Time> {
        self.queue.peek_at()
    }

    /// Injects a message that originated in *another* partition's engine,
    /// arriving at local node `to` at absolute time `at`. The sender's
    /// engine already charged transmission ([`Engine::charge_remote_tx`]);
    /// this engine charges reception at delivery, applying the usual
    /// destination-down check. The cross-partition link itself is
    /// modelled loss-free: loss, jitter and duplication were all resolved
    /// by the sending application against its own engine before the
    /// envelope was committed to the wire, keeping the RNG draw sequence
    /// of each partition self-contained.
    ///
    /// The delivered [`Event::Message`] carries `from == to` — the true
    /// source lives in a different index space and application payloads
    /// carry their own provenance. This also exempts the hop from this
    /// engine's partition-fault checks (`reachable(to, to)` is trivially
    /// true); intra-shard fault semantics are unaffected.
    pub fn accept_remote(
        &mut self,
        at: Time,
        to: NodeIdx,
        payload: M,
        size: u32,
        class: TrafficClass,
    ) {
        debug_assert!(
            at >= self.now,
            "conservative violation: remote arrival {at:?} before now {:?}",
            self.now
        );
        self.push(
            at,
            Pending::Message {
                from: to,
                to,
                payload: Payload::Owned(payload),
                size,
                class,
            },
        );
    }

    /// Charges transmission accounting for a cross-partition send to the
    /// local source node `from`, mirroring what [`Engine::send`] charges
    /// before handing a message to the network: one sent message and
    /// `size` bytes of `class` traffic. The destination partition's
    /// engine completes the accounting on delivery via
    /// [`Engine::accept_remote`].
    pub fn charge_remote_tx(&mut self, from: NodeIdx, size: u32, class: TrafficClass) {
        debug_assert!(self.up[from.idx()], "down node {from:?} tried to send");
        self.messages_sent += 1;
        self.recorder.record_tx(self.now, from.idx(), class, size);
        self.record_app_event(from, "sim.remote_tx", u64::from(size));
    }

    /// Pops and applies the next event at or before `horizon`, returning
    /// it for application-level dispatch. Returns `None` when the queue is
    /// exhausted or the next event lies beyond the horizon (the clock then
    /// advances to the horizon).
    pub fn next_event_before(&mut self, horizon: Time) -> Option<(Time, Event<M>)> {
        loop {
            match self.queue.peek_at() {
                None => {
                    self.now = self.now.max(horizon);
                    return None;
                }
                Some(at) if at > horizon => {
                    self.now = horizon;
                    return None;
                }
                _ => {}
            }
            let q = self.queue.pop().expect("peeked");
            self.now = q.at;
            match q.pending {
                Pending::Message {
                    from,
                    to,
                    payload,
                    size,
                    class,
                } => {
                    if !self.up[to.idx()] {
                        self.dropped_dest_down += 1;
                        self.drops_by_class[class as usize] += 1;
                        self.trace(|| TraceEvent::MessageDrop {
                            from,
                            to,
                            class,
                            cause: DropCause::DestDown,
                        });
                        continue;
                    }
                    // A partition that opened while the message was in
                    // flight swallows it too.
                    if !self.reachable(from, to) {
                        self.dropped_partition += 1;
                        self.drops_by_class[class as usize] += 1;
                        self.trace(|| TraceEvent::MessageDrop {
                            from,
                            to,
                            class,
                            cause: DropCause::Partition,
                        });
                        continue;
                    }
                    self.recorder.record_rx(self.now, to.idx(), class, size);
                    self.trace(|| TraceEvent::MessageDeliver {
                        from,
                        to,
                        size,
                        class,
                    });
                    return Some((self.now, Event::Message { from, to, payload }));
                }
                Pending::Timer { node, tag } => {
                    let Some((_, kind)) = self.timer_meta[node.idx()].remove(&q.seq) else {
                        debug_assert!(false, "fired timer without metadata");
                        continue;
                    };
                    // An auto timer armed for an already-down node (legal
                    // but unusual) is dropped at fire time.
                    if kind != TimerKind::Detached && !self.up[node.idx()] {
                        self.trace(|| TraceEvent::TimerCancel {
                            node,
                            seq: q.seq,
                            at: q.at,
                        });
                        continue;
                    }
                    if kind == TimerKind::Quantum {
                        self.quantum_timers_fired += 1;
                    }
                    self.trace(|| TraceEvent::TimerFire {
                        node,
                        tag,
                        seq: q.seq,
                    });
                    return Some((self.now, Event::Timer { node, tag }));
                }
                Pending::NodeUp { node } => {
                    if self.up[node.idx()] {
                        continue; // duplicate up event; ignore
                    }
                    self.up[node.idx()] = true;
                    self.live.insert(node.0);
                    self.recorder.node_up(self.now, node.idx());
                    self.trace(|| TraceEvent::NodeUp { node });
                    return Some((self.now, Event::NodeUp { node }));
                }
                Pending::NodeDown { node } => {
                    if !self.up[node.idx()] {
                        continue;
                    }
                    self.up[node.idx()] = false;
                    self.live.remove(&node.0);
                    self.trace(|| TraceEvent::NodeDown { node });
                    self.auto_cancel_timers(node);
                    self.recorder.node_down(self.now, node.idx());
                    return Some((self.now, Event::NodeDown { node }));
                }
                Pending::NodeCrash { node } => {
                    // Engine-side, a crash is a down transition; the
                    // distinct event tells the application to wipe the
                    // node's soft state. Crashing an already-down node is
                    // a no-op, like a duplicate down.
                    if !self.up[node.idx()] {
                        continue;
                    }
                    self.up[node.idx()] = false;
                    self.live.remove(&node.0);
                    self.trace(|| TraceEvent::NodeCrash { node });
                    self.auto_cancel_timers(node);
                    self.recorder.node_down(self.now, node.idx());
                    return Some((self.now, Event::NodeCrash { node }));
                }
                Pending::PartitionStart { partition } => {
                    if let Some(inj) = &mut self.faults {
                        inj.partition_started(partition as usize);
                    }
                    self.trace(|| TraceEvent::PartitionStart { partition });
                    return Some((self.now, Event::PartitionStart { partition }));
                }
                Pending::PartitionEnd { partition } => {
                    if let Some(inj) = &mut self.faults {
                        inj.partition_ended(partition as usize);
                    }
                    self.trace(|| TraceEvent::PartitionEnd { partition });
                    return Some((self.now, Event::PartitionEnd { partition }));
                }
            }
        }
    }

    /// Drops every auto timer `node` still has pending — its next
    /// availability session starts with a clean slate.
    fn auto_cancel_timers(&mut self, node: NodeIdx) {
        // Collect while the queue and metadata are borrowed, trace after;
        // sorted by seq so the trace order is canonical rather than the
        // metadata map's (deterministic but arbitrary) iteration order.
        let collect = self.tracing_active();
        let mut cancelled_log: Vec<(u64, Time)> = Vec::new();
        let meta = &mut self.timer_meta[node.idx()];
        let queue = &mut self.queue;
        let mut dropped = 0u64;
        // lint:allow(D001): SeqMap uses the fixed-key SeqHasher over engine-assigned monotone seqs, so iteration order is identical across processes; the only order-sensitive output (the trace) is sorted below.
        meta.retain(|&seq, &mut (at, kind)| {
            if kind != TimerKind::Detached {
                let removed = queue.cancel(at, seq);
                debug_assert!(removed, "outstanding timer missing from queue");
                dropped += 1;
                if collect {
                    cancelled_log.push((seq, at));
                }
                false
            } else {
                true
            }
        });
        self.timers_cancelled += dropped;
        cancelled_log.sort_unstable_by_key(|&(seq, _)| seq);
        for (seq, at) in cancelled_log {
            self.trace(|| TraceEvent::TimerCancel { node, seq, at });
        }
    }

    /// Charges `bytes` of transmitted overlay-maintenance traffic to
    /// `node` without scheduling a message — used for liveness probes
    /// whose only protocol effect (detecting a dead peer) the caller
    /// applies directly.
    pub fn record_probe(&mut self, node: NodeIdx, bytes: u32) {
        self.recorder
            .record_tx(self.now, node.idx(), TrafficClass::Overlay, bytes);
    }

    /// Registers standing (periodic, event-free) traffic for `node`; see
    /// [`BandwidthRecorder::set_standing`]. Used for strictly periodic
    /// protocol traffic (leafset heartbeats) whose event-by-event
    /// simulation would swamp the queue without changing any decision.
    pub fn set_standing(&mut self, node: NodeIdx, class: TrafficClass, tx_rate: f32, rx_rate: f32) {
        self.recorder
            .set_standing(node.idx(), class, tx_rate, rx_rate);
    }

    /// Per-cause drop statistics so far (also embedded in the final
    /// [`BandwidthReport`] by [`Engine::finish`]).
    #[must_use]
    pub fn drop_stats(&self) -> DropStats {
        DropStats {
            random_loss: self.dropped_loss,
            partition: self.dropped_partition,
            dest_down: self.dropped_dest_down,
            link_fault: self.dropped_link_fault,
            duplicated: self.messages_duplicated,
            by_class: self.drops_by_class,
        }
    }

    /// Snapshot of the engine's counters and gauges as a
    /// [`MetricsRegistry`] — the uniform surface for run summaries.
    /// Applications merge their own registries on top.
    #[must_use]
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.set_counter("sim.messages_sent", self.messages_sent);
        m.set_counter("sim.timers_cancelled", self.timers_cancelled);
        m.set_counter("sim.quantum_timers_fired", self.quantum_timers_fired);
        m.set_counter("sim.clamped_to_now", self.clamped_to_now);
        m.set_counter("sim.payload_fallback_clones", payload_fallback_clones());
        m.set_counter(
            "sim.payload_cross_partition_clones",
            payload_cross_partition_clones(),
        );
        m.record_drop_stats(&self.drop_stats());
        let totals = self.recorder.totals_tx();
        m.set_counter("sim.tx_bytes.overlay", totals[0]);
        m.set_counter("sim.tx_bytes.maintenance", totals[1]);
        m.set_counter("sim.tx_bytes.query", totals[2]);
        m.set_gauge("sim.nodes_up", self.num_up() as f64);
        m.set_gauge("sim.nodes_total", self.num_nodes() as f64);
        for (kind, count) in &self.app_events {
            m.set_counter(kind, *count);
        }
        if let Some(t) = &self.tracer {
            m.set_counter("sim.trace.recorded", t.recorded());
            m.set_counter("sim.trace.evicted", t.dropped_records());
        }
        m
    }

    /// Finishes the run, consuming the engine and yielding the bandwidth
    /// report (accounting closed at the final clock value).
    #[must_use]
    pub fn finish(self) -> BandwidthReport {
        let drops = self.drop_stats();
        let mut report = self.recorder.finish(self.now);
        report.drops = drops;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::UniformTopology;
    use rand::Rng;

    fn engine(n: usize, latency_ms: u64) -> Engine<&'static str> {
        Engine::new(
            Box::new(UniformTopology::new(n, Duration::from_millis(latency_ms))),
            SimConfig::default(),
        )
    }

    fn drain(e: &mut Engine<&'static str>, horizon: Time) -> Vec<(Time, String)> {
        let mut out = Vec::new();
        while let Some((t, ev)) = e.next_event_before(horizon) {
            out.push((t, format!("{ev:?}")));
        }
        out
    }

    #[test]
    fn message_latency_and_ordering() {
        let mut e = engine(3, 10);
        e.schedule_up(Time::ZERO, NodeIdx(0));
        e.schedule_up(Time::ZERO, NodeIdx(1));
        // Bring nodes up first.
        assert!(matches!(
            e.next_event_before(Time(1)),
            Some((_, Event::NodeUp { .. }))
        ));
        assert!(matches!(
            e.next_event_before(Time(1)),
            Some((_, Event::NodeUp { .. }))
        ));
        e.send(NodeIdx(0), NodeIdx(1), "hello", 100, TrafficClass::Query);
        let (t, ev) = e
            .next_event_before(Time::ZERO + Duration::from_secs(1))
            .unwrap();
        assert_eq!(t, Time::ZERO + Duration::from_millis(10));
        match ev {
            Event::Message { from, to, payload } => {
                assert_eq!(from, NodeIdx(0));
                assert_eq!(to, NodeIdx(1));
                assert_eq!(payload.into_owned(), "hello");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn multicast_fallback_clone_is_metered_and_single_dest_is_free() {
        let mut e = engine(3, 0);
        for i in 0..3 {
            e.schedule_up(Time::ZERO, NodeIdx(i));
            let _ = e.next_event_before(Time(1));
        }
        let horizon = Time::ZERO + Duration::from_secs(1);

        // Single destination: the owned fast path, no fallback possible.
        let before = payload_fallback_clones();
        e.multicast(NodeIdx(0), &[NodeIdx(1)], "solo", 10, TrafficClass::Query);
        let (_, ev) = e.next_event_before(horizon).unwrap();
        let Event::Message { payload, .. } = ev else {
            panic!("expected message");
        };
        assert_eq!(payload.into_owned(), "solo");
        assert_eq!(payload_fallback_clones(), before);

        // Two destinations: the first copy consumed by value clones (its
        // sibling still holds the allocation); the last copy moves free.
        e.multicast(
            NodeIdx(0),
            &[NodeIdx(1), NodeIdx(2)],
            "pair",
            10,
            TrafficClass::Query,
        );
        for step in 1..=2u64 {
            let (_, ev) = e.next_event_before(horizon).unwrap();
            let Event::Message { payload, .. } = ev else {
                panic!("expected message");
            };
            assert_eq!(payload.into_owned(), "pair");
            assert_eq!(payload_fallback_clones(), before + 1, "step {step}");
        }
    }

    #[test]
    fn fifo_between_same_timestamp_events() {
        let mut e = engine(2, 0);
        e.schedule_up(Time::ZERO, NodeIdx(0));
        e.schedule_up(Time::ZERO, NodeIdx(1));
        let evs = drain(&mut e, Time(10));
        assert!(evs[0].1.contains("NodeUp { node: NodeIdx(0) }"));
        assert!(evs[1].1.contains("NodeUp { node: NodeIdx(1) }"));
    }

    #[test]
    fn message_to_down_node_is_dropped() {
        let mut e = engine(2, 10);
        e.schedule_up(Time::ZERO, NodeIdx(0));
        e.schedule_up(Time::ZERO, NodeIdx(1));
        e.schedule_down(Time(5_000), NodeIdx(1)); // down before delivery
        let _ = e.next_event_before(Time(1)); // up 0
        let _ = e.next_event_before(Time(1)); // up 1
        e.send(NodeIdx(0), NodeIdx(1), "m", 50, TrafficClass::Query);
        let evs = drain(&mut e, Time::ZERO + Duration::from_secs(1));
        // Only the NodeDown should surface; the message is swallowed.
        assert_eq!(evs.len(), 1, "{evs:?}");
        assert!(evs[0].1.contains("NodeDown"));
        assert_eq!(e.dropped_dest_down, 1);
    }

    #[test]
    fn timer_cancelled_when_node_goes_down() {
        let mut e = engine(1, 0);
        e.schedule_up(Time::ZERO, NodeIdx(0));
        let _ = e.next_event_before(Time(1));
        e.set_timer(NodeIdx(0), Duration::from_secs(10), 42);
        e.schedule_down(Time::ZERO + Duration::from_secs(5), NodeIdx(0));
        // Node comes back before the timer's original fire time; the
        // timer must NOT leak into the new session.
        e.schedule_up(Time::ZERO + Duration::from_secs(7), NodeIdx(0));
        let evs = drain(&mut e, Time::ZERO + Duration::from_secs(60));
        assert_eq!(evs.len(), 2, "{evs:?}");
        assert!(evs[0].1.contains("NodeDown"));
        assert!(evs[1].1.contains("NodeUp"));
        assert_eq!(e.timers_cancelled, 1);
    }

    #[test]
    fn detached_timer_survives_churn() {
        let mut e = engine(1, 0);
        e.schedule_up(Time::ZERO, NodeIdx(0));
        let _ = e.next_event_before(Time(1));
        e.set_detached_timer(NodeIdx(0), Duration::from_secs(10), 9);
        e.schedule_down(Time::ZERO + Duration::from_secs(5), NodeIdx(0));
        let evs = drain(&mut e, Time::ZERO + Duration::from_secs(60));
        assert_eq!(evs.len(), 2, "{evs:?}");
        assert!(evs[0].1.contains("NodeDown"));
        assert!(evs[1].1.contains("Timer"), "{evs:?}");
        assert_eq!(e.timers_cancelled, 0);
    }

    #[test]
    fn quantum_timer_fires_counted_and_dies_with_node() {
        let mut e = engine(1, 0);
        e.schedule_up(Time::ZERO, NodeIdx(0));
        let _ = e.next_event_before(Time(1));
        // First quantum fires and is metered separately from protocol
        // timers.
        e.set_quantum_timer(NodeIdx(0), Duration::from_secs(1), 3);
        let (_, ev) = e
            .next_event_before(Time::ZERO + Duration::from_secs(2))
            .unwrap();
        assert!(matches!(
            ev,
            Event::Timer {
                node: NodeIdx(0),
                tag: 3
            }
        ));
        assert_eq!(e.quantum_timers_fired, 1);
        assert_eq!(e.timers_cancelled, 0);
        // Second quantum is disarmed by the node going down, exactly like
        // an auto timer: a dead endsystem has no scan queue to pump.
        e.set_quantum_timer(NodeIdx(0), Duration::from_secs(10), 4);
        e.schedule_down(Time::ZERO + Duration::from_secs(5), NodeIdx(0));
        let evs = drain(&mut e, Time::ZERO + Duration::from_secs(60));
        assert_eq!(evs.len(), 1, "{evs:?}");
        assert!(evs[0].1.contains("NodeDown"));
        assert_eq!(e.quantum_timers_fired, 1);
        assert_eq!(e.timers_cancelled, 1);
    }

    #[test]
    fn cancel_timer_disarms_and_is_idempotent() {
        let mut e = engine(1, 0);
        e.schedule_up(Time::ZERO, NodeIdx(0));
        let _ = e.next_event_before(Time(1));
        let h = e.set_timer(NodeIdx(0), Duration::from_secs(3), 7);
        let kept = e.set_timer(NodeIdx(0), Duration::from_secs(4), 8);
        assert!(e.cancel_timer(h));
        assert!(!e.cancel_timer(h), "second cancel is a no-op");
        let evs = drain(&mut e, Time::ZERO + Duration::from_secs(10));
        assert_eq!(evs.len(), 1, "{evs:?}");
        assert!(evs[0].1.contains("tag: 8"), "{evs:?}");
        // A handle whose timer already fired cancels as a no-op too.
        assert!(!e.cancel_timer(kept));
    }

    #[test]
    fn timer_fires_with_tag() {
        let mut e = engine(1, 0);
        e.schedule_up(Time::ZERO, NodeIdx(0));
        let _ = e.next_event_before(Time(1));
        e.set_timer(NodeIdx(0), Duration::from_secs(3), 7);
        let (t, ev) = e
            .next_event_before(Time::ZERO + Duration::from_secs(10))
            .unwrap();
        assert_eq!(t, Time::ZERO + Duration::from_secs(3));
        assert!(matches!(
            ev,
            Event::Timer {
                node: NodeIdx(0),
                tag: 7
            }
        ));
    }

    #[test]
    fn horizon_stops_and_advances_clock() {
        let mut e = engine(1, 0);
        e.schedule_up(Time::ZERO + Duration::from_secs(100), NodeIdx(0));
        assert!(e
            .next_event_before(Time::ZERO + Duration::from_secs(50))
            .is_none());
        assert_eq!(e.now(), Time::ZERO + Duration::from_secs(50));
        assert!(e
            .next_event_before(Time::ZERO + Duration::from_secs(200))
            .is_some());
        assert_eq!(e.now(), Time::ZERO + Duration::from_secs(100));
    }

    #[test]
    fn past_dated_events_clamp_to_now() {
        let mut e = engine(1, 0);
        e.schedule_up(Time::ZERO, NodeIdx(0));
        let _ = e.next_event_before(Time::ZERO + Duration::from_secs(5)); // NodeUp
        assert!(e
            .next_event_before(Time::ZERO + Duration::from_secs(5))
            .is_none());
        // Clock sits at the horizon (5s); date an event before it.
        assert_eq!(e.now(), Time::ZERO + Duration::from_secs(5));
        e.schedule_down(Time::ZERO + Duration::from_secs(2), NodeIdx(0));
        let (t, ev) = e
            .next_event_before(Time::ZERO + Duration::from_secs(10))
            .unwrap();
        assert_eq!(t, e.now());
        assert_eq!(t, Time::ZERO + Duration::from_secs(5));
        assert!(matches!(ev, Event::NodeDown { .. }));
        assert_eq!(e.clamped_to_now, 1);
    }

    #[test]
    fn loss_rate_drops_messages() {
        let mut e: Engine<u32> = Engine::new(
            Box::new(UniformTopology::new(2, Duration::MILLISECOND)),
            SimConfig {
                seed: 1,
                loss_rate: 1.0,
                ..SimConfig::default()
            },
        );
        e.schedule_up(Time::ZERO, NodeIdx(0));
        e.schedule_up(Time::ZERO, NodeIdx(1));
        let _ = e.next_event_before(Time(1));
        let _ = e.next_event_before(Time(1));
        e.send(NodeIdx(0), NodeIdx(1), 1, 10, TrafficClass::Query);
        assert!(e
            .next_event_before(Time::ZERO + Duration::from_secs(1))
            .is_none());
        assert_eq!(e.dropped_loss, 1);
    }

    #[test]
    fn bandwidth_is_accounted() {
        let mut e = engine(2, 1);
        e.schedule_up(Time::ZERO, NodeIdx(0));
        e.schedule_up(Time::ZERO, NodeIdx(1));
        let _ = e.next_event_before(Time(1));
        let _ = e.next_event_before(Time(1));
        e.send(NodeIdx(0), NodeIdx(1), "x", 500, TrafficClass::Maintenance);
        let _ = drain(&mut e, Time::ZERO + Duration::from_hours(2));
        let report = e.finish();
        assert_eq!(report.total_tx[TrafficClass::Maintenance as usize], 500);
        let rx: u64 = report
            .rx_hours
            .iter()
            .map(|h| h.bytes[TrafficClass::Maintenance as usize])
            .sum();
        assert_eq!(rx, 500);
    }

    #[test]
    fn up_nodes_iterates_live_set() {
        let mut e = engine(4, 0);
        e.schedule_up(Time::ZERO, NodeIdx(1));
        e.schedule_up(Time::ZERO, NodeIdx(3));
        let _ = e.next_event_before(Time(1));
        let _ = e.next_event_before(Time(1));
        let ups: Vec<_> = e.up_nodes().collect();
        assert_eq!(ups, vec![NodeIdx(1), NodeIdx(3)]);
        assert_eq!(e.num_up(), 2);
        assert!(e.is_up(NodeIdx(3)));
        assert!(!e.is_up(NodeIdx(0)));
    }

    /// Model-based check of the wheel on its own: under a random mix of
    /// pushes (same-instant ties, every wheel level, far-future entries),
    /// cancellations and pops, every peek and pop agrees with a sorted
    /// `(time, seq)` set, and the live count never drifts.
    #[test]
    fn wheel_matches_sorted_model() {
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut wheel: TimerWheel<()> = TimerWheel::new();
            let mut model: BTreeSet<(u64, u64)> = BTreeSet::new();
            let mut now = 0u64;
            for seq in 0..4_000u64 {
                match rng.gen_range(0u8..10) {
                    0..=4 => {
                        let at = now
                            + match rng.gen_range(0u8..4) {
                                0 => 0,
                                1 => rng.gen_range(0..64),
                                2 => rng.gen_range(0..300_000),
                                _ => rng.gen_range(0..1u64 << 40),
                            };
                        let pending = Pending::Timer {
                            node: NodeIdx(0),
                            tag: seq,
                        };
                        wheel.push(Queued {
                            at: Time(at),
                            seq,
                            pending,
                        });
                        model.insert((at, seq));
                    }
                    5 | 6 => {
                        // Cancel the head (often already drained into the
                        // current batch), the tail, or an entry near a
                        // random probe time.
                        let probe = (now + rng.gen_range(0..1u64 << 40), 0);
                        let victim = match rng.gen_range(0u8..3) {
                            0 => model.first().copied(),
                            1 => model.last().copied(),
                            _ => model.range(probe..).next().copied(),
                        };
                        if let Some((at, seq)) = victim {
                            assert!(wheel.cancel(Time(at), seq), "seed {seed}");
                            model.remove(&(at, seq));
                        }
                    }
                    _ => {
                        // Peek, then pop only when something is due —
                        // the engine's own calling pattern.
                        let head = model.first().map(|&(at, _)| Time(at));
                        assert_eq!(wheel.peek_at(), head, "seed {seed}");
                        if head.is_some() {
                            let got = wheel.pop().map(|q| (q.at.0, q.seq));
                            assert_eq!(got, model.pop_first(), "seed {seed}");
                            now = got.map_or(now, |(at, _)| at);
                        }
                    }
                }
                assert_eq!(wheel.len, model.len(), "seed {seed}");
            }
            while let Some(want) = model.pop_first() {
                assert_eq!(wheel.pop().map(|q| (q.at.0, q.seq)), Some(want));
            }
            assert!(wheel.pop().is_none());
        }
    }

    /// Long-delay timers cross multiple cascade levels and still fire in
    /// exact time order.
    #[test]
    fn wheel_cascades_preserve_order_across_levels() {
        let mut e = engine(1, 0);
        e.schedule_up(Time::ZERO, NodeIdx(0));
        let _ = e.next_event_before(Time(1));
        // Delays from µs to hours: levels 0 through ~5.
        let delays: &[u64] = &[
            1,
            63,
            64,
            65,
            4_095,
            4_096,
            262_143,
            262_144,
            10_000_000,
            3_600_000_000,
        ];
        for (i, &d) in delays.iter().enumerate() {
            e.set_timer(NodeIdx(0), Duration::from_micros(d), i as u64);
        }
        let horizon = Time::ZERO + Duration::from_secs(7200);
        let fired: Vec<Time> =
            std::iter::from_fn(|| e.next_event_before(horizon).map(|(t, _)| t)).collect();
        let expect: Vec<Time> = delays.iter().map(|&d| Time(d)).collect();
        assert_eq!(fired, expect);
    }
}
