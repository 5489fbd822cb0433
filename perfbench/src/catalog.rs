//! The benchmark's self-description. Names, units, directions, bounds and
//! workload reasons come from `BENCHMARK.json`, embedded at build time;
//! this file adds only what that file has no key for: what each
//! end-to-end metric means, and for each per-layer metric its layer and
//! the end-to-end metric and workloads it should move.
//! `perfbench --describe` prints both together.

use std::sync::OnceLock;

use crate::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

pub struct Metric {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may get worse;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

pub struct Spec {
    /// `(name, why)` of each workload.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    pub fn has_workload(&self, name: &str) -> bool {
        self.workloads.iter().any(|(w, _)| w == name)
    }
}

/// `BENCHMARK.json`, parsed once.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| parse(BENCHMARK_JSON).unwrap_or_else(|e| panic!("BENCHMARK.json: {e}")))
}

fn parse(text: &str) -> Result<Spec, String> {
    let root = Json::parse(text)?;
    let list = |key: &str| -> Result<&[Json], String> {
        root.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("no list {key:?}"))
    };
    let text_of = |v: &Json, key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("entry without {key:?}: {}", v.render()))
    };
    let metric = |v: &Json| -> Result<Metric, String> {
        Ok(Metric {
            name: text_of(v, "name")?,
            unit: text_of(v, "unit")?,
            lower_is_better: text_of(v, "better")? == "lower",
            bound: v.get("bound").and_then(Json::num),
        })
    };
    Ok(Spec {
        workloads: list("workloads")?
            .iter()
            .map(|w| Ok((text_of(w, "name")?, text_of(w, "why")?)))
            .collect::<Result<_, String>>()?,
        end_to_end: list("end_to_end")?
            .iter()
            .map(metric)
            .collect::<Result<_, _>>()?,
        per_layer: list("per_layer")?
            .iter()
            .map(metric)
            .collect::<Result<_, _>>()?,
    })
}

/// What each end-to-end metric measures.
pub const MEANING: [(&str, &str); 6] = [
    ("setup_s", "host time to build the world: data plane, topology, overlay ids, Seaweed::new, availability schedule; scaled to the reference host speed, median over repetitions"),
    ("run_s", "host time of the simulated phase, tracing off; scaled to the reference host speed, median over repetitions"),
    ("peak_rss_mb", "VmHWM of the workload's own process (median over repetitions)"),
    ("query_delay_p50_s", "simulated delay from injection (storm: admission) to the row reaching the origin's result, median over every (query, matching row); rows not in by the horizon are censored there"),
    ("query_delay_p90_s", "p90 of the same pooled distribution"),
    ("overhead_Bps_per_endsystem", "simulated bytes transmitted per online endsystem per second, all traffic classes"),
];

const ENGINE: (&str, &str) = (
    "sim engine",
    "run_s on churn and population; failed queries on churn",
);
const JOIN: (&str, &str) = ("overlay join", "run_s on population and churn");
const MAINT: (&str, &str) = (
    "overlay maintenance",
    "run_s and overhead_Bps_per_endsystem on churn",
);
const META: (&str, &str) = (
    "core::app metadata",
    "run_s and overhead_Bps_per_endsystem on churn and population",
);
const DISS: (&str, &str) = (
    "core::app dissemination",
    "query_delay_p50_s and run_s on storm; failed queries on churn",
);
const RES: (&str, &str) = ("core::app results", "run_s and query_delay_p90_s on storm");
const TIMER: (&str, &str) = ("core::app timers", "run_s on storm");
const STORM: (&str, &str) = (
    "core::app::storm",
    "query_delay_p90_s and failed queries on storm",
);
const STORE: (&str, &str) = ("store", "run_s on storm");
const EXEC: (&str, &str) = ("sim::exec", "run_s on federated");
const BW: &str = "overhead_Bps_per_endsystem on every workload";

/// The layer of each per-layer metric, and what it should move.
#[rustfmt::skip]
pub const LAYER: [(&str, (&str, &str)); 48] = [
    ("engine.events", ENGINE),
    ("engine.next_event_s", ENGINE),
    ("engine.events_per_s", ENGINE),
    ("engine.messages", ENGINE),
    ("engine.drops", ENGINE),
    ("engine.delivered_ratio", ENGINE),
    ("topology.build_s", ("sim::topology", "setup_s on population and federated")),
    ("data.build_s", ("availability, workload and store tables", "setup_s on churn")),
    ("overlay.join.events", JOIN),
    ("overlay.join.dispatch_s", JOIN),
    ("overlay.maint.events", MAINT),
    ("overlay.maint.dispatch_s", MAINT),
    ("overlay.join_retries", MAINT),
    ("overlay.route.hops_mean", MAINT),
    ("metadata.events", META),
    ("metadata.dispatch_s", META),
    ("metadata.repairs", META),
    ("disseminate.events", DISS),
    ("disseminate.dispatch_s", DISS),
    ("disseminate.reissues", DISS),
    ("disseminate.give_ups", DISS),
    ("disseminate.useful_ratio", DISS),
    ("results.events", RES),
    ("results.dispatch_s", RES),
    ("results.retries", RES),
    ("results.vertex_replications", RES),
    ("results.useful_ratio", RES),
    ("app_timer.events", TIMER),
    ("app_timer.dispatch_s", TIMER),
    ("storm.admitted", STORM),
    ("storm.queued", STORM),
    ("storm.dropped", STORM),
    ("storm.scan_quanta", STORM),
    ("storm.shared_scan_batches", STORM),
    ("store.exec_calls", STORE),
    ("store.exec_s", STORE),
    ("store.estimate_s", STORE),
    ("store.inject_s", STORE),
    ("exec.busy_s", EXEC),
    ("exec.idle_s", EXEC),
    ("exec.remote_msgs", EXEC),
    ("exec.cross_clones", EXEC),
    ("mem.setup_rss_mb", ("all state built at set-up", "peak_rss_mb on every workload")),
    ("bw.overlay_bytes", ("overlay", BW)),
    ("bw.maintenance_bytes", ("core::app metadata", BW)),
    ("bw.query_bytes", ("core::app query path", BW)),
    ("trace.unattributed_frac", ("benchmark tracing", "share of traced run_s no span covers")),
    ("trace.overhead_s", ("benchmark tracing", "traced run_s minus untraced run_s")),
];

pub fn meaning(name: &str) -> Option<&'static str> {
    MEANING.iter().find(|(n, _)| *n == name).map(|(_, m)| *m)
}

pub fn layer(name: &str) -> Option<(&'static str, &'static str)> {
    LAYER.iter().find(|(n, _)| *n == name).map(|(_, l)| *l)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_metric_is_described() {
        let s = spec();
        for m in &s.end_to_end {
            assert!(meaning(&m.name).is_some(), "{} has no meaning", m.name);
            assert!(m.bound.is_some(), "{} has no bound", m.name);
        }
        for m in &s.per_layer {
            assert!(layer(&m.name).is_some(), "{} has no layer", m.name);
        }
        assert_eq!(MEANING.len(), s.end_to_end.len());
        assert_eq!(LAYER.len(), s.per_layer.len());
    }
}
