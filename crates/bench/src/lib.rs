#![forbid(unsafe_code)]
//! Experiment harness: regenerates every table and figure in the paper's
//! evaluation (§4), plus ablations. One binary per experiment lives in
//! `src/bin/`; Criterion micro-benchmarks live in `benches/`.
//!
//! Experiments write CSV series into `results/` and print the headline
//! numbers (the ones quoted in the paper's prose) to stdout. Default
//! scales are laptop-sized; every binary takes `--full` to run at the
//! paper's scale, and `--n/--seed/--weeks` style overrides. See
//! EXPERIMENTS.md for the mapping and recorded outcomes.

pub mod cli;
pub mod figures;
pub mod fullsim;
pub mod output;
pub mod parallel;
pub mod predsim;

pub use cli::Args;
pub use output::{write_csv, Table as OutTable};
pub use parallel::{jobs, run_sweep};

/// Process peak resident set (`VmHWM`) in bytes; 0 where `/proc` is
/// absent. Monotone over the process lifetime, so a sweep that reports
/// it per point runs each point in its own process (see the `scale`
/// binary).
#[must_use]
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}
