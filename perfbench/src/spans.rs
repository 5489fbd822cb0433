//! Layer spans timed from outside the program.
//!
//! The benchmark wraps each call it makes into the simulator — the
//! engine pop, `Seaweed::dispatch`, query injection — and each call the
//! protocol makes into its data plane (through [`Timed`]) in a span
//! named after the layer that does the work. Spans aggregate in memory
//! per thread (count, total and self time) and are read once at the
//! end. Nothing is recorded unless the run is traced.

use std::cell::{Cell, RefCell};
use std::sync::OnceLock;
use std::time::Instant;

use seaweed_core::{DataProvider, SeaweedMsg};
use seaweed_overlay::{is_overlay_tag, OverlayMsg};
use seaweed_sim::Event;
use seaweed_store::{Aggregate, BoundQuery, StoreError};

/// The layers a span is charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `Engine::next_event_before`: the scheduler pop.
    EngineNext,
    /// Overlay join traffic: JoinRequest, RtRow, JoinReply, Announce.
    Join,
    /// Overlay maintenance: leafset pull/push, overlay timers, node
    /// up/down/crash and partition transitions.
    Maint,
    /// Metadata replication (`MetaPush`).
    Metadata,
    /// Query dissemination and predictor aggregation.
    Disseminate,
    /// Result aggregation up the vertex tree.
    Results,
    /// Application timers (opaque tags).
    AppTimer,
    /// `DataProvider::execute` / `execute_many`.
    StoreExec,
    /// `DataProvider::estimate_rows`.
    StoreEstimate,
    /// Query injection or storm submission (parse, bind, inject).
    Inject,
    /// Executor control payloads (`PartitionApp::on_ctl`).
    ExecCtl,
}

pub const LAYERS: [Layer; 11] = [
    Layer::EngineNext,
    Layer::Join,
    Layer::Maint,
    Layer::Metadata,
    Layer::Disseminate,
    Layer::Results,
    Layer::AppTimer,
    Layer::StoreExec,
    Layer::StoreEstimate,
    Layer::Inject,
    Layer::ExecCtl,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::EngineNext => "engine.next_event",
            Layer::Join => "overlay.join",
            Layer::Maint => "overlay.maint",
            Layer::Metadata => "metadata",
            Layer::Disseminate => "disseminate",
            Layer::Results => "results",
            Layer::AppTimer => "app_timer",
            Layer::StoreExec => "store.exec",
            Layer::StoreEstimate => "store.estimate",
            Layer::Inject => "store.inject",
            Layer::ExecCtl => "exec.ctl",
        }
    }

    /// Whether a span of this layer is entered directly by the benchmark
    /// (not nested inside another span). Top-level spans partition the
    /// timed phase; what they leave uncovered is the unattributed residue.
    pub fn top_level(self) -> bool {
        !matches!(self, Layer::StoreExec | Layer::StoreEstimate)
    }
}

/// Aggregate of one layer's spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by nested spans.
    pub self_ns: u64,
}

pub type Aggs = [Agg; LAYERS.len()];

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static AGG: RefCell<Aggs> = RefCell::new(Aggs::default());
    /// Time covered by spans closed since the enclosing span began (or
    /// since the last [`Local::record`]).
    static CHILD: Cell<u64> = const { Cell::new(0) };
}

/// Turns span recording on or off for the calling thread.
pub fn set_tracing(on: bool) {
    ON.with(|c| c.set(on));
}

pub fn tracing() -> bool {
    ON.with(Cell::get)
}

/// Nanoseconds since the first call in this process (monotone, shared by
/// all threads).
pub fn now_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    // lint:allow(D002): the benchmark's host clock for spans, never feeds simulated time
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn add(a: &mut Agg, dur: u64, nested: u64) {
    a.count += 1;
    a.total_ns += dur;
    a.self_ns += dur.saturating_sub(nested);
}

/// Runs `f` inside a span when tracing is on. Spans nest: a span's self
/// time excludes the spans opened inside it.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if !tracing() {
        return f();
    }
    let outer_child = CHILD.with(|c| c.replace(0));
    let start = now_ns();
    let r = f();
    let dur = now_ns() - start;
    let nested = CHILD.with(|c| c.replace(outer_child + dur));
    AGG.with(|a| add(&mut a.borrow_mut()[layer as usize], dur, nested));
    r
}

/// Aggregates for the benchmark's hottest spans (the engine pop and the
/// dispatch of each event), kept in a local and merged into the thread's
/// aggregates once, to keep the cost per event at two clock reads.
pub struct Local(Aggs);

impl Local {
    pub fn new() -> Local {
        CHILD.with(|c| c.set(0));
        Local(Aggs::default())
    }

    /// Records a top-level span from `start` to `end`; spans nested in it
    /// ran through [`span`].
    pub fn record(&mut self, layer: Layer, start: u64, end: u64) {
        let nested = CHILD.with(|c| c.replace(0));
        add(&mut self.0[layer as usize], end - start, nested);
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        AGG.with(|a| merge(&mut a.borrow_mut(), &self.0));
    }
}

/// Takes and resets the calling thread's aggregates.
pub fn take() -> Aggs {
    AGG.with(|a| std::mem::take(&mut *a.borrow_mut()))
}

pub fn merge(into: &mut Aggs, from: &Aggs) {
    for (a, b) in into.iter_mut().zip(from) {
        a.count += b.count;
        a.total_ns += b.total_ns;
        a.self_ns += b.self_ns;
    }
}

/// The layer an engine event's dispatch is charged to. Routed and direct
/// overlay messages are charged to their Seaweed payload's layer.
pub fn classify(ev: &Event<OverlayMsg<SeaweedMsg>>) -> Layer {
    match ev {
        Event::Message { payload, .. } => match &**payload {
            OverlayMsg::Route { payload, .. } | OverlayMsg::App(payload) => app_layer(payload),
            OverlayMsg::JoinRequest { .. }
            | OverlayMsg::RtRow { .. }
            | OverlayMsg::JoinReply { .. }
            | OverlayMsg::Announce => Layer::Join,
            OverlayMsg::LeafsetPull | OverlayMsg::LeafsetPush { .. } => Layer::Maint,
        },
        Event::Timer { tag, .. } if is_overlay_tag(*tag) => Layer::Maint,
        Event::Timer { .. } => Layer::AppTimer,
        Event::NodeUp { .. }
        | Event::NodeDown { .. }
        | Event::NodeCrash { .. }
        | Event::PartitionStart { .. }
        | Event::PartitionEnd { .. } => Layer::Maint,
    }
}

fn app_layer(m: &SeaweedMsg) -> Layer {
    match m {
        SeaweedMsg::MetaPush { .. } => Layer::Metadata,
        SeaweedMsg::Disseminate { .. }
        | SeaweedMsg::PredictorReport { .. }
        | SeaweedMsg::PredictorToOrigin { .. }
        | SeaweedMsg::ViewReport { .. }
        | SeaweedMsg::ViewToOrigin { .. }
        | SeaweedMsg::QueryListPull
        | SeaweedMsg::QueryListPush { .. } => Layer::Disseminate,
        SeaweedMsg::ResultSubmit { .. }
        | SeaweedMsg::ResultAck { .. }
        | SeaweedMsg::VertexReplicate { .. }
        | SeaweedMsg::ResultToOrigin { .. } => Layer::Results,
    }
}

/// A data provider that times the protocol's calls into the store.
#[derive(Debug)]
pub struct Timed<P>(pub P);

impl<P: DataProvider> DataProvider for Timed<P> {
    fn summary_wire_size(&self, node: usize) -> u32 {
        self.0.summary_wire_size(node)
    }

    fn estimate_rows(&self, node: usize, query: &BoundQuery) -> f64 {
        span(Layer::StoreEstimate, || self.0.estimate_rows(node, query))
    }

    fn execute(&self, node: usize, query: &BoundQuery) -> Result<Aggregate, StoreError> {
        span(Layer::StoreExec, || self.0.execute(node, query))
    }

    fn exact_rows(&self, node: usize, query: &BoundQuery) -> u64 {
        self.0.exact_rows(node, query)
    }

    fn scan_cost(&self, node: usize) -> u64 {
        self.0.scan_cost(node)
    }

    fn execute_many(
        &self,
        node: usize,
        queries: &[&BoundQuery],
    ) -> Vec<Result<Aggregate, StoreError>> {
        span(Layer::StoreExec, || self.0.execute_many(node, queries))
    }
}
