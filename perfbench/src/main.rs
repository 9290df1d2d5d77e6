//! The benchmark of record for jmatch.
//!
//! ```text
//! perfbench --workload compile|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload runs the three phases — compile (source → verified
//! `Program`), query (operation → all solutions) and serve (wire request
//! → reply) — in finely interleaved steps, and spends half of its `--seconds`
//! on the phase it is named after; so every end-to-end metric is reported
//! on every workload. Inputs come from `--seed` only.
//! Every output is checked against an independent oracle; a mismatch
//! exits nonzero before any metric is printed.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the traced
//! variant and prints the per-layer metrics, writing its spans to
//! `perfbench/out/`. The last line of standard output is the result
//! object; the line before it records the host and the sample count
//! behind each metric.

mod compile;
mod query;
mod serve;
mod stats;
mod trace;

use jmatch_runtime::serve::json::Json;
use stats::{median, Report, Rng};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Set-up runs this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// Shares of a run: the workload's own phase, the other named phase, and
/// the query phase, which both workloads run as a quarter.
const FOCUS_SHARE: f64 = 0.5;
const OTHER_SHARE: f64 = 0.25;
const QUERY_SHARE: f64 = 0.25;

/// A phase measured in short steps, so that the run can interleave the
/// phases finely and spread every metric's samples over its whole length.
pub trait Steps {
    /// Runs one step: a scratch load or an edit sweep, a window of
    /// operations or an enumeration, or one ladder rung.
    fn step(&mut self) -> Result<(), String>;
    /// Whether the phase has the fewest samples its metrics need.
    fn ready(&self) -> bool;
}

/// Runs the phases' steps until `budget` is spent and every phase is
/// ready, always stepping the phase furthest behind its share of the time
/// spent so far.
fn interleave(phases: &mut [(&mut dyn Steps, f64)], budget: Duration) -> Result<(), String> {
    let start = Instant::now();
    let mut spent = vec![0.0; phases.len()];
    loop {
        let over = start.elapsed() >= budget;
        let next = (0..phases.len())
            .filter(|&i| !over || !phases[i].0.ready())
            .min_by(|&a, &b| (spent[a] / phases[a].1).total_cmp(&(spent[b] / phases[b].1)));
        let Some(i) = next else {
            return Ok(());
        };
        let t = Instant::now();
        phases[i].0.step()?;
        spent[i] += t.elapsed().as_secs_f64();
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    Compile,
    Serve,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Compile => "compile",
            Workload::Serve => "serve",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "compile" => Workload::Compile,
                    "serve" => Workload::Serve,
                    other => return Err(format!("unknown workload {other}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !s.is_finite() || s <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => trace = Some(value == "1"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Everything the phases need, built before any measurement.
struct Setup {
    rows: Vec<compile::Row>,
    query: query::Setup,
    serve: serve::Setup,
}

fn setup(rng: &Rng, threads: usize, tracer: Option<&Tracer>) -> Result<Setup, String> {
    Ok(Setup {
        rows: compile::corpus(),
        query: query::Setup::new(rng)?,
        serve: serve::Setup::new(rng, threads, tracer)?,
    })
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit under test: `PERFBENCH_COMMIT` when set, else the `HEAD`
/// of a `.git` directory in the working directory, else "unknown". The
/// checkout is read directly rather than through `git`, which would search
/// the directories above it.
fn commit() -> String {
    if let Ok(c) = std::env::var("PERFBENCH_COMMIT") {
        return c;
    }
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let head = read(".git/HEAD").map(|h| h.trim().to_owned());
    let hash = match head.as_deref().and_then(|h| h.strip_prefix("ref: ")) {
        Some(name) => read(&format!(".git/{name}"))
            .map(|h| h.trim().to_owned())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_owned))
            }),
        None => head,
    };
    hash.unwrap_or_else(|| "unknown".into())
}

/// Every worker and connection count of a run, by name.
type Workers = Vec<(&'static str, usize)>;

fn run(args: &Args) -> Result<(Report, Workers), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Every worker count below is explicit; pinning the library's fallback
    // knob as well means no count is ever decided by the environment.
    let threads = nproc.min(2);
    std::env::set_var("JMATCH_PAR_THREADS", threads.to_string());
    let workers = vec![
        ("verify_threads", threads),
        ("par_workers", threads),
        ("serve_workers", threads),
        ("serve_inner_threads", 1),
        ("client_connections", serve::CONNECTIONS),
        ("generator_threads", serve::CONNECTIONS),
    ];
    let rng = Rng::new(args.seed);
    let mut report = Report::default();

    if args.trace {
        let tracer = Tracer::new();
        let s = setup(&rng, threads, Some(&tracer))?;
        compile::run_traced(&s.rows, &rng, threads, &tracer, &mut report)?;
        query::run_traced(&s.query, threads, &tracer, &mut report)?;
        serve::run_traced(&s.serve, &rng, &tracer, &mut report)?;
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        return Ok((report, workers));
    }

    let mut setup_s = Vec::new();
    let mut s = None;
    for _ in 0..SETUP_REPS {
        drop(s.take());
        let t = Instant::now();
        s = Some(setup(&rng, threads, None)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let s = s.expect("set up at least once");

    // The phases take turns in steps of at most a few hundred
    // milliseconds, so every metric samples the whole run and interference
    // on a shared host spreads over all metrics instead of landing on one.
    let share = |w: Workload| {
        if w == args.workload {
            FOCUS_SHARE
        } else {
            OTHER_SHARE
        }
    };
    let mut compile = compile::Phase::new(&s.rows, &rng, threads);
    let mut query = query::Phase::new(&s.query, threads);
    let mut serve = serve::Phase::new(&s.serve, &rng)?;
    interleave(
        &mut [
            (&mut compile, share(Workload::Compile)),
            (&mut query, QUERY_SHARE),
            (&mut serve, share(Workload::Serve)),
        ],
        Duration::from_secs_f64(args.seconds),
    )?;
    compile.finish(&mut report)?;
    query.finish(&mut report);
    serve.finish(&mut report);

    stats::raw("setup_s", &setup_s);
    report.put("setup_s", median(&setup_s), "s", setup_s.len());
    report.put("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    let ok = (report.attempted - report.failed) as f64 / report.attempted as f64;
    report.put("ok_frac", ok, "ratio", report.attempted as usize);
    Ok((report, workers))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (report, workers) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let obj = |pairs: Vec<(String, Json)>| Json::Obj(pairs);
    let host = obj(vec![
        ("nproc".into(), Json::Int(nproc as i64)),
        ("commit".into(), Json::Str(commit())),
        ("rustc".into(), Json::Str(env!("PERFBENCH_RUSTC").into())),
        ("workload".into(), Json::Str(args.workload.name().into())),
        ("seed".into(), Json::Int(args.seed as i64)),
        ("seconds".into(), Json::Float(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        (
            "workers".into(),
            obj(workers
                .iter()
                .map(|(k, v)| (k.to_string(), Json::Int(*v as i64)))
                .collect()),
        ),
        (
            "samples".into(),
            obj(report
                .metrics
                .iter()
                .map(|(name, m)| (name.clone(), Json::Int(m.samples as i64)))
                .collect()),
        ),
    ]);
    println!("{}", obj(vec![("host".into(), host)]));
    let metrics = report
        .metrics
        .iter()
        .map(|(name, m)| {
            let value = obj(vec![
                ("value".into(), Json::Float(m.value)),
                ("unit".into(), Json::Str(m.unit.into())),
            ]);
            (name.clone(), value)
        })
        .collect();
    println!(
        "{}",
        obj(vec![
            ("correct".into(), Json::Bool(true)),
            ("attempted".into(), Json::Int(report.attempted as i64)),
            ("failed".into(), Json::Int(report.failed as i64)),
            ("metrics".into(), obj(metrics)),
        ])
    );
    ExitCode::SUCCESS
}
