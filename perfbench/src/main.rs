//! The Seaweed simulator's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--size bench|tiny]
//! perfbench collect --out <dir> --seeds <a-b|a,b,..> [--seconds <s>]
//! perfbench compare <parent dir> <candidate dir>
//! perfbench --describe
//! perfbench reference --threads <n>
//! ```
//!
//! A run repeats one workload for `--seconds`, each repetition in its own
//! process (this binary re-executed in `point` mode), so peak RSS and
//! allocator state never carry from one repetition to the next. It checks
//! every repetition's outputs and that the simulation repeats exactly,
//! then prints one JSON line: `correct`, `attempted` and `failed` queries,
//! and the metrics — end-to-end with `--trace 0`, per-layer with
//! `--trace 1`. End-to-end host times are scaled to a reference host
//! speed measured around each repetition (see `calib`). A traced run alternates untraced and traced repetitions,
//! so the tracing overhead is measured in the same run. The manifest
//! (git rev, cores, CPU, rustc, profile) and the per-layer table go to
//! standard error.
//!
//! `collect` runs the benchmark over several seeds and every workload into
//! a result set; `compare` sets two result sets side by side and gives
//! each end-to-end metric a verdict.

#![forbid(unsafe_code)]

mod calib;
mod catalog;
mod json;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use seaweed_sim::exec::ExecKind;

use json::Json;
use workloads::Size;

/// Untraced repetitions in a run, at the least; a traced run needs at
/// least two of each kind.
const MIN_REPS: usize = 3;
const MIN_TRACED_REPS: usize = 2;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("point") => point(&args[1..]),
        Some("reference") => reference(&args[1..]),
        Some("collect") => collect(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some("--describe") => describe(),
        _ => bench(&args),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

/// `--key value` flags; every flag must be one the command knows.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut m = BTreeMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .filter(|k| known.contains(k))
                .ok_or_else(|| format!("unknown argument {a:?} (expected one of {known:?})"))?;
            let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            m.insert(key.to_owned(), v.clone());
        }
        Ok(Flags(m))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    fn req(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: Option<T>) -> Result<T, String> {
        match self.get(key) {
            Some(v) => v.parse().map_err(|_| format!("bad --{key} {v:?}")),
            None => default.ok_or_else(|| format!("missing --{key}")),
        }
    }

    fn flag01(&self, key: &str) -> Result<bool, String> {
        match self.get(key).unwrap_or("0") {
            "0" => Ok(false),
            "1" => Ok(true),
            v => Err(format!("--{key} must be 0 or 1, not {v:?}")),
        }
    }

    fn size(&self) -> Result<Size, String> {
        let s = self.get("size").unwrap_or("bench");
        Size::parse(s).ok_or_else(|| format!("--size must be bench or tiny, not {s:?}"))
    }
}

fn check_workload(name: &str) -> Result<(), String> {
    if catalog::spec().has_workload(name) {
        Ok(())
    } else {
        Err(format!("unknown workload {name:?}"))
    }
}

// ------------------------------------------------------------ point

/// One repetition, in this process: prints the repetition's record as a
/// JSON line.
fn point(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args, &["workload", "seed", "trace", "size", "exec"])?;
    let workload = f.req("workload")?;
    check_workload(workload)?;
    let exec = match f.get("exec").unwrap_or("parallel") {
        "parallel" => ExecKind::Parallel,
        "serial" => ExecKind::Serial,
        v => return Err(format!("--exec must be serial or parallel, not {v:?}")),
    };
    spans::set_tracing(f.flag01("trace")?);
    let rep = workloads::run(workload, f.num("seed", None)?, f.size()?, exec)?;
    let strings = |v: &[String]| Json::Arr(v.iter().map(|s| Json::from(s.as_str())).collect());
    let nums = |m: &BTreeMap<String, f64>| {
        Json::Obj(m.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect())
    };
    let out = Json::obj([
        ("setup_s", Json::Num(rep.setup_s)),
        ("run_s", Json::Num(rep.run_s)),
        ("peak_rss_mb", Json::Num(rep.peak_rss_mb)),
        ("queries", Json::from(rep.queries)),
        ("failed", Json::from(rep.failed)),
        ("violations", strings(&rep.violations)),
        ("oracle", strings(&rep.oracle)),
        ("det", nums(&rep.det)),
        ("layer", nums(&rep.layer)),
    ]);
    println!("{}", out.render());
    Ok(())
}

/// Times the host-speed reference loop on `--threads` threads and prints
/// the seconds it took.
fn reference(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args, &["threads"])?;
    println!("{}", calib::reference_s(f.num("threads", None)?));
    Ok(())
}

/// A command that runs this binary, pinned to `cpu` when one is given.
fn own_command(cpu: Option<&str>) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    Ok(match cpu {
        Some(cpu) => {
            let mut c = Command::new("taskset");
            c.args(["-c", cpu]).arg(exe);
            c
        }
        None => Command::new(exe),
    })
}

/// The CPU a single-threaded workload's repetitions and reference loops
/// are pinned to, so that the loop measures the core the repetition ran
/// on: the shared host's cores differ in speed by up to 30% at the same
/// moment. It is the last CPU this process may use, if `taskset` can pin
/// to it; otherwise nothing is pinned.
fn pin_cpu() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let cpu = allowed.trim().rsplit([',', '-']).next()?.to_owned();
    let pinned = Command::new("taskset")
        .args(["-c", &cpu, "true"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .ok()?
        .success();
    pinned.then_some(cpu)
}

/// Runs the reference loop in a fresh process, pinned like the
/// repetitions, and returns its time.
fn spawn_reference(threads: usize, cpu: Option<&str>) -> Result<f64, String> {
    let out = own_command(cpu)?
        .args(["reference", "--threads", &threads.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn reference loop: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse() {
        Ok(s) if out.status.success() => Ok(s),
        _ => Err(format!("reference loop failed: {}", out.status)),
    }
}

/// Runs one repetition in a fresh process and reads back its record.
fn spawn_point(
    workload: &str,
    seed: u64,
    size: &str,
    trace: bool,
    exec: &str,
    cpu: Option<&str>,
) -> Result<Json, String> {
    let seed = seed.to_string();
    let out = own_command(cpu)?
        .args([
            "point",
            "--workload",
            workload,
            "--seed",
            &seed,
            "--size",
            size,
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--exec", exec])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn repetition: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload} repetition failed: {}", out.status));
    }
    last_json_line(&String::from_utf8_lossy(&out.stdout))
}

fn last_json_line(text: &str) -> Result<Json, String> {
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("no output")?;
    Json::parse(line)
}

// ------------------------------------------------------------ bench

fn manifest() -> Json {
    let run = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            // Only this directory's own repository, never a parent's.
            .env("GIT_DIR", ".git")
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".to_owned())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|r| r.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    Json::obj([
        ("git_rev", Json::Str(run("git", &["rev-parse", "HEAD"]))),
        (
            "nproc",
            // lint:allow(D004): reads the core count for the manifest; spawns no thread
            Json::from(std::thread::available_parallelism().map_or(1, usize::from) as u64),
        ),
        ("cpu", Json::Str(cpu)),
        ("rustc", Json::Str(run("rustc", &["-V"]))),
        (
            "profile",
            Json::from(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ])
}

fn field(rep: &Json, key: &str) -> f64 {
    rep.get(key).and_then(Json::num).unwrap_or(f64::NAN)
}

fn sub(rep: &Json, map: &str, key: &str) -> Option<f64> {
    rep.get(map)?.get(key)?.num()
}

fn median_of(reps: &[Json], f: impl Fn(&Json) -> Option<f64>) -> Option<f64> {
    let xs: Vec<f64> = reps.iter().filter_map(f).collect();
    (!xs.is_empty()).then(|| stats::median(&xs))
}

fn bench(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args, &["workload", "seed", "seconds", "trace", "size"])?;
    let workload = f.req("workload")?;
    check_workload(workload)?;
    let seed: u64 = f.num("seed", None)?;
    let seconds: f64 = f.num("seconds", Some(10.0))?;
    let trace = f.flag01("trace")?;
    let size = f.get("size").unwrap_or("bench");
    let threads = workloads::threads(workload, f.size()?);
    let cpu = if threads == 1 { pin_cpu() } else { None };
    let cpu = cpu.as_deref();
    eprintln!("manifest {}", manifest().render());
    eprintln!(
        "{workload}: {threads} thread(s), pinned to cpu {}",
        cpu.unwrap_or("none")
    );

    // Untraced and (when tracing) traced repetitions, alternating, until
    // the time is used up. The reference loop before and after each one
    // gives the host's speed during it.
    // lint:allow(D002): host-side benchmark timing, never feeds simulated time
    let start = Instant::now();
    let mut plain: Vec<Json> = Vec::new();
    let mut traced: Vec<Json> = Vec::new();
    let mut reference_before = spawn_reference(threads, cpu)?;
    loop {
        let want_trace = trace && traced.len() < plain.len();
        let mut rep = spawn_point(workload, seed, size, want_trace, "parallel", cpu)?;
        let reference_after = spawn_reference(threads, cpu)?;
        let scale = 2.0 * calib::REFERENCE_S / (reference_before + reference_after);
        reference_before = reference_after;
        if let Json::Obj(m) = &mut rep {
            m.insert("scale".to_owned(), Json::Num(scale));
        }
        if want_trace {
            traced.push(rep);
        } else {
            plain.push(rep);
        }
        let enough_reps = plain.len() >= if trace { MIN_TRACED_REPS } else { MIN_REPS }
            && (!trace || traced.len() >= MIN_TRACED_REPS);
        if enough_reps && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    // Correctness: every repetition's own checks, and the simulation
    // repeating exactly across repetitions (and across executor modes).
    let mut correct = true;
    let all: Vec<&Json> = plain.iter().chain(&traced).collect();
    for rep in &all {
        for v in rep.get("violations").and_then(Json::as_arr).unwrap_or(&[]) {
            eprintln!("wrong answer: {}", v.as_str().unwrap_or("?"));
            correct = false;
        }
        for v in rep.get("oracle").and_then(Json::as_arr).unwrap_or(&[]) {
            eprintln!(
                "oracle violation (the run's queries count as failed): {}",
                v.as_str().unwrap_or("?")
            );
        }
    }
    let det0 = plain[0].get("det").cloned().unwrap_or(Json::Null);
    for rep in &all[1..] {
        if rep.get("det") != Some(&det0) {
            eprintln!(
                "nondeterminism: deterministic counters differ between repetitions of seed {seed}"
            );
            correct = false;
        }
    }
    if workload == "federated" {
        let serial = spawn_point(workload, seed, size, false, "serial", None)?;
        if serial.get("det") != Some(&det0) {
            eprintln!("nondeterminism: serial execution differs from parallel");
            correct = false;
        }
    }
    let attempted: f64 = all.iter().map(|r| field(r, "queries")).sum();
    let failed: f64 = all.iter().map(|r| field(r, "failed")).sum();

    let plain_run_s = median_of(&plain, |r| r.get("run_s")?.num()).unwrap_or(f64::NAN);
    let mut metrics = BTreeMap::new();
    let mut put = |name: &str, unit: &str, value: f64| {
        metrics.insert(
            name.to_owned(),
            Json::obj([("value", Json::Num(value)), ("unit", Json::from(unit))]),
        );
    };
    if trace {
        let traced_run_s = median_of(&traced, |r| r.get("run_s")?.num()).unwrap_or(f64::NAN);
        for m in &catalog::spec().per_layer {
            let value = match m.name.as_str() {
                "engine.events_per_s" => {
                    sub(&plain[0], "det", "engine.events").unwrap_or(0.0) / plain_run_s
                }
                "trace.overhead_s" => traced_run_s - plain_run_s,
                name => sub(&plain[0], "det", name)
                    .or_else(|| median_of(&plain, |r| sub(r, "layer", name)))
                    .or_else(|| median_of(&traced, |r| sub(r, "layer", name)))
                    .unwrap_or(0.0),
            };
            put(&m.name, &m.unit, value);
        }
        print_layer_table(&traced, traced_run_s, plain_run_s);
    } else {
        // Host times are scaled to the reference host speed.
        let scaled = |r: &Json, name: &str| Some(r.get(name)?.num()? * r.get("scale")?.num()?);
        for m in &catalog::spec().end_to_end {
            let value = match m.name.as_str() {
                name @ ("setup_s" | "run_s") => {
                    median_of(&plain, |r| scaled(r, name)).unwrap_or(f64::NAN)
                }
                "peak_rss_mb" => {
                    median_of(&plain, |r| r.get("peak_rss_mb")?.num()).unwrap_or(f64::NAN)
                }
                name => sub(&plain[0], "det", name).unwrap_or(f64::NAN),
            };
            put(&m.name, &m.unit, value);
        }
        eprintln!(
            "{workload}: {} repetitions, {} delay samples ({} censored); unscaled median setup_s {:.4}, run_s {:.4}; median host speed {:.3} of the reference",
            plain.len(),
            sub(&plain[0], "det", "delay.samples").unwrap_or(0.0),
            sub(&plain[0], "det", "delay.censored").unwrap_or(0.0),
            median_of(&plain, |r| r.get("setup_s")?.num()).unwrap_or(f64::NAN),
            plain_run_s,
            median_of(&plain, |r| r.get("scale")?.num()).unwrap_or(f64::NAN),
        );
    }
    let out = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted)),
        ("failed", Json::Num(failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", out.render());
    Ok(())
}

/// The per-layer table on standard error: events and self time of each
/// dispatch layer, and its share of the traced simulated phase.
fn print_layer_table(traced: &[Json], traced_run_s: f64, plain_run_s: f64) {
    eprintln!(
        "{:<22} {:>12} {:>10} {:>8}",
        "layer", "events", "self_s", "share"
    );
    let rows = [
        ("engine.next_event", None, "engine.next_event_s"),
        (
            "overlay.join",
            Some("overlay.join.events"),
            "overlay.join.dispatch_s",
        ),
        (
            "overlay.maint",
            Some("overlay.maint.events"),
            "overlay.maint.dispatch_s",
        ),
        ("metadata", Some("metadata.events"), "metadata.dispatch_s"),
        (
            "disseminate",
            Some("disseminate.events"),
            "disseminate.dispatch_s",
        ),
        ("results", Some("results.events"), "results.dispatch_s"),
        (
            "app_timer",
            Some("app_timer.events"),
            "app_timer.dispatch_s",
        ),
        ("store.exec", Some("store.exec_calls"), "store.exec_s"),
        ("store.estimate", None, "store.estimate_s"),
        ("store.inject", None, "store.inject_s"),
        ("exec.idle", None, "exec.idle_s"),
    ];
    // Federated layer times add up over the executor's workers.
    let workers = median_of(traced, |r| sub(r, "layer", "exec.workers")).unwrap_or(1.0);
    for (name, count, time) in rows {
        let Some(t) = median_of(traced, |r| sub(r, "layer", time)) else {
            continue;
        };
        let c = count
            .and_then(|c| median_of(traced, |r| sub(r, "layer", c)))
            .map_or_else(|| "-".to_owned(), |c| format!("{c:.0}"));
        eprintln!(
            "{name:<22} {c:>12} {t:>10.3} {:>7.1}%",
            100.0 * t / (traced_run_s * workers)
        );
    }
    let residue =
        median_of(traced, |r| sub(r, "layer", "trace.unattributed_frac")).unwrap_or(f64::NAN);
    eprintln!(
        "unattributed {:.1}% of traced run_s {traced_run_s:.3} s; tracing overhead {:+.3} s over untraced {plain_run_s:.3} s",
        100.0 * residue,
        traced_run_s - plain_run_s,
    );
}

// ---------------------------------------------------------- collect

fn parse_seeds(s: &str) -> Result<Vec<u64>, String> {
    let bad = || format!("bad --seeds {s:?}");
    if let Some((a, b)) = s.split_once('-') {
        let (a, b): (u64, u64) = (a.parse().map_err(|_| bad())?, b.parse().map_err(|_| bad())?);
        return Ok((a..=b).collect());
    }
    s.split(',').map(|x| x.parse().map_err(|_| bad())).collect()
}

/// Runs the benchmark once per (seed, workload), interleaving workloads,
/// and appends each result line to `<out>/<workload>.jsonl`.
fn collect(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args, &["out", "seeds", "seconds"])?;
    let out = Path::new(f.req("out")?);
    let seeds = parse_seeds(f.req("seeds")?)?;
    let seconds = f.get("seconds").unwrap_or("10");
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    std::fs::write(out.join("manifest.json"), manifest().render() + "\n")
        .map_err(|e| format!("manifest: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    for seed in seeds {
        for (w, _) in &catalog::spec().workloads {
            let s = seed.to_string();
            // lint:allow(D002): host-side benchmark timing, never feeds simulated time
            let started = Instant::now();
            let o = Command::new(&exe)
                .args(["--workload", w, "--seed", &s, "--seconds", seconds])
                .args(["--trace", "0"])
                .stdin(Stdio::null())
                .stderr(Stdio::null())
                .output()
                .map_err(|e| format!("spawn: {e}"))?;
            if !o.status.success() {
                return Err(format!("{w} seed {seed} failed: {}", o.status));
            }
            let result = last_json_line(&String::from_utf8_lossy(&o.stdout))?;
            let line = Json::obj([("seed", Json::Num(seed as f64)), ("result", result)]);
            eprintln!(
                "{w} seed {seed} ({:.1} s): {}",
                started.elapsed().as_secs_f64(),
                line.render()
            );
            let path = out.join(format!("{w}.jsonl"));
            let mut text = std::fs::read_to_string(&path).unwrap_or_default();
            text.push_str(&line.render());
            text.push('\n');
            std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------- compare

/// `(seed, result)` pairs of one workload's result file, by seed.
fn load_set(dir: &Path, workload: &str) -> Result<BTreeMap<u64, Json>, String> {
    let path = dir.join(format!("{workload}.jsonl"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let v = Json::parse(l)?;
            let seed = v
                .get("seed")
                .and_then(Json::num)
                .ok_or("line without seed")? as u64;
            Ok((seed, v.get("result").cloned().ok_or("line without result")?))
        })
        .collect()
}

/// An end-to-end metric's value in a result, if the result has it.
fn metric_value(result: &Json, metric: &str) -> Option<f64> {
    result.get("metrics")?.get(metric)?.get("value")?.num()
}

/// For every workload and end-to-end metric, both sides' medians and
/// spreads, the share of same-seed pairs the candidate wins, and a
/// verdict. A workload, seed or value that either side lacks is reported,
/// and a metric without a value on every common seed reads "missing".
fn compare(args: &[String]) -> Result<(), String> {
    let [a, b] = args else {
        return Err("usage: perfbench compare <parent dir> <candidate dir>".into());
    };
    let (a, b) = (Path::new(a), Path::new(b));
    println!(
        "{:<10} {:<27} {:>12} {:>12} {:>7} {:>7} {:>8} {:>5} {:>5} verdict",
        "workload", "metric", "median A", "median B", "IQR% A", "IQR% B", "B vs A", "wins", "bound"
    );
    for (w, _) in &catalog::spec().workloads {
        let (sa, sb) = match (load_set(a, w), load_set(b, w)) {
            (Ok(sa), Ok(sb)) => (sa, sb),
            (ra, rb) => {
                for (r, name) in [(ra, "A"), (rb, "B")] {
                    if let Err(e) = r {
                        println!("{w:<10} set {name}: no results ({e}); verdict missing");
                    }
                }
                continue;
            }
        };
        let seeds: Vec<u64> = sa.keys().filter(|s| sb.contains_key(s)).copied().collect();
        for (set, other, name) in [(&sa, &sb, "A"), (&sb, &sa, "B")] {
            let only: Vec<u64> = set
                .keys()
                .filter(|s| !other.contains_key(s))
                .copied()
                .collect();
            if !only.is_empty() {
                println!("{w:<10} set {name}: seeds {only:?} have no pair; left out");
            }
            let bad: Vec<u64> = set
                .iter()
                .filter(|(_, r)| {
                    r.get("correct") != Some(&Json::Bool(true)) || field(r, "failed") != 0.0
                })
                .map(|(s, _)| *s)
                .collect();
            if !bad.is_empty() {
                println!("{w:<10} set {name}: incorrect or failed queries on seeds {bad:?}");
            }
        }
        for m in &catalog::spec().end_to_end {
            let bound = m.bound.unwrap_or(0.0);
            let pairs: Option<Vec<(f64, f64)>> = seeds
                .iter()
                .map(|s| {
                    Some((
                        metric_value(&sa[s], &m.name)?,
                        metric_value(&sb[s], &m.name)?,
                    ))
                })
                .collect();
            let Some((va, vb)) = pairs
                .filter(|p| !p.is_empty())
                .map(|p| p.into_iter().unzip::<f64, f64, Vec<_>, Vec<_>>())
            else {
                println!(
                    "{w:<10} {:<27} no value on every common seed; verdict missing",
                    m.name
                );
                continue;
            };
            let c = stats::compare(&va, &vb, m.lower_is_better, bound);
            println!(
                "{w:<10} {:<27} {:>12.6} {:>12.6} {:>6.1}% {:>6.1}% {:>+7.1}% {:>5.2} {:>5.2} {}",
                m.name,
                stats::median(&va),
                stats::median(&vb),
                100.0 * stats::spread(&va),
                100.0 * stats::spread(&vb),
                100.0 * c.worse_by,
                c.win_frac,
                bound,
                c.verdict.name(),
            );
        }
    }
    Ok(())
}

// --------------------------------------------------------- describe

fn describe() -> Result<(), String> {
    let spec = catalog::spec();
    let e2e = spec.end_to_end.iter().map(|m| {
        let meaning = catalog::meaning(&m.name).ok_or_else(|| format!("{}: no meaning", m.name))?;
        Ok(Json::obj([
            ("name", Json::from(m.name.as_str())),
            ("unit", Json::from(m.unit.as_str())),
            ("better", Json::from(better(m))),
            ("bound", m.bound.map_or(Json::Null, Json::Num)),
            ("meaning", Json::from(meaning)),
        ]))
    });
    let layer = spec.per_layer.iter().map(|m| {
        let (layer, moves) =
            catalog::layer(&m.name).ok_or_else(|| format!("{}: no layer", m.name))?;
        Ok(Json::obj([
            ("name", Json::from(m.name.as_str())),
            ("unit", Json::from(m.unit.as_str())),
            ("better", Json::from(better(m))),
            ("layer", Json::from(layer)),
            ("moves", Json::from(moves)),
        ]))
    });
    let w = spec.workloads.iter().map(|(n, why)| {
        Json::obj([
            ("name", Json::from(n.as_str())),
            ("why", Json::from(why.as_str())),
        ])
    });
    let out = Json::obj([
        ("workloads", Json::Arr(w.collect())),
        ("end_to_end", Json::Arr(e2e.collect::<Result<_, String>>()?)),
        (
            "per_layer",
            Json::Arr(layer.collect::<Result<_, String>>()?),
        ),
    ]);
    println!("{}", out.render());
    Ok(())
}

fn better(m: &catalog::Metric) -> &'static str {
    if m.lower_is_better {
        "lower"
    } else {
        "higher"
    }
}
