//! The sqip whole-path benchmark: one workload per process, spec in to
//! rows out, outputs checked, every metric printed by name and unit as
//! the last line of standard output. See `README.md` in this directory.
//!
//! ```text
//! sqip-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! sqip-perfbench --reference
//! ```
#![forbid(unsafe_code)]

mod check;
mod jobs;
mod layers;
mod metrics;
mod reference;
mod spans;
mod stats;

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use sqip::RunRecord;

use crate::check::Functional;
use crate::jobs::{run_batch, Bench, Kind};
use crate::layers::TracedRun;
use crate::stats::{median, tail_percentile};

/// An untraced run sets up at least `SETUP_MIN_REPS` times, and then
/// again while the set-ups so far took under `SETUP_BUDGET_S` seconds, up
/// to `SETUP_MAX_REPS`; `setup_s` is the median. Cheap set-ups (a roster
/// registration takes about 0.1 ms) so get enough samples for a steady
/// median, and the SQTR recording of `tracefile-replay` stays affordable.
const SETUP_MIN_REPS: usize = 7;
const SETUP_MAX_REPS: usize = 200;
const SETUP_BUDGET_S: f64 = 1.0;
/// An untraced run keeps going (in whole rounds) until it has this many
/// jobs, so the p90 has ten samples beyond it.
const MIN_JOBS: usize = 100;
/// The layer-by-layer re-run must add up to the production sweep's time
/// within this share of it.
const SWEEP_TOLERANCE: f64 = 0.20;
/// Scratch files and span dumps, relative to the repository root.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--reference") {
        let dir = PathBuf::from(OUT_DIR);
        let result = std::fs::create_dir_all(&dir)
            .map_err(|e| e.to_string())
            .and_then(|()| reference::run(calibrate(), &dir));
        if let Err(e) = result {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
        return;
    }
    let code = match Args::parse().and_then(|args| run(&args)) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut argv = std::env::args().skip(1);
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 20.0, false);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        let kind = Kind::parse(&workload).ok_or_else(|| {
            format!(
                "unknown workload `{workload}` (one of {})",
                metrics::WORKLOADS.join(", ")
            )
        })?;
        Ok(Args {
            workload,
            kind,
            seed,
            seconds,
            trace,
        })
    }
}

/// One job's rows, by the job's index in the round.
type JobRows = (usize, Vec<RunRecord>);

/// Runs the workload; `Ok(false)` when an output check failed.
fn run(args: &Args) -> Result<bool, String> {
    let dir = Path::new(OUT_DIR).join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result = if args.trace {
        traced(args, &dir)
    } else {
        untraced(args, &dir)
    };
    // The SQTR segments are large and rebuilt by every run.
    let _ = std::fs::remove_dir_all(&dir);
    let (line, correct) = result?;
    println!("{line}");
    Ok(correct)
}

fn untraced(args: &Args, dir: &Path) -> Result<(String, bool), String> {
    let serve = args.kind == Kind::ServeClosed;
    let mut setups: Vec<f64> = Vec::new();
    let mut bench: Option<Bench> = None;
    while setups.len() < SETUP_MIN_REPS
        || (setups.iter().sum::<f64>() < SETUP_BUDGET_S && setups.len() < SETUP_MAX_REPS)
    {
        if let Some(b) = bench.take() {
            b.finish();
        }
        let t = Instant::now();
        bench = Some(Bench::prepare(
            args.kind,
            args.seed,
            setups.len(),
            dir,
            serve,
        )?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("set-up ran at least once");

    let mut latency_ms = Vec::new();
    let (mut committed, mut busy_s) = (0u64, 0.0f64);
    let mut runs: Vec<JobRows> = Vec::new();
    let (mut attempted, mut failed, mut jobs_run) = (0u64, 0u64, 0usize);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds || jobs_run < MIN_JOBS {
        jobs_run += bench.jobs.len();
        for (i, job) in bench.jobs.iter().enumerate() {
            let t = Instant::now();
            let rows = match bench.server.as_mut() {
                Some(server) => server
                    .submit(&format!("job-{}", runs.len()), job)
                    .map(|o| o.rows),
                None => run_batch(job).map(|set| set.records().to_vec()),
            };
            let seconds = t.elapsed().as_secs_f64();
            attempted += job.operations();
            match rows {
                Ok(rows) => {
                    committed += rows.iter().map(|r| r.stats.committed).sum::<u64>();
                    busy_s += seconds;
                    latency_ms.push(seconds * 1e3);
                    runs.push((i, rows));
                }
                Err(e) => {
                    eprintln!("perfbench: {}: {e}", job.name);
                    failed += job.operations();
                }
            }
        }
    }
    let peak_rss_mb = peak_rss_mb()?;

    let failures = check_outputs(&bench, &runs);
    bench.finish();
    let p90 = tail_percentile(&latency_ms, 0.9)
        .ok_or_else(|| format!("{} jobs are too few for a p90", latency_ms.len()))?;
    let values = [
        ("setup_s", median(&setups)),
        // Over all jobs together: a median of per-job rates would sit on
        // one program's block of samples and be as noisy as that program.
        ("sim_minsts_per_s", committed as f64 / busy_s / 1e6),
        ("peak_rss_mb", peak_rss_mb),
        ("job_latency_ms_p50", median(&latency_ms)),
        ("job_latency_ms_p90", p90),
    ];
    let correct = report(&failures);
    let line = metrics::result_line(correct, attempted, failed, &metrics::END_TO_END, &values)?;
    Ok((line, correct))
}

fn traced(args: &Args, dir: &Path) -> Result<(String, bool), String> {
    let mut bench = Bench::prepare(args.kind, args.seed, 0, dir, true)?;
    let calib_ns = calibrate();
    let mut traced = TracedRun::new();
    let mut failures = Vec::new();
    let mut runs: Vec<JobRows> = Vec::new();
    let (mut attempted, mut failed, mut rounds) = (0u64, 0u64, 0u32);
    let start = Instant::now();
    while rounds == 0 || start.elapsed().as_secs_f64() < args.seconds {
        rounds += 1;
        let server = bench.server.as_mut().expect("a traced run serves");
        for (i, job) in bench.jobs.iter().enumerate() {
            attempted += job.operations();
            match traced.job(args.kind, job, server, &mut failures) {
                Ok(rows) => runs.push((i, rows)),
                Err(e) => {
                    eprintln!("perfbench: {}: {e}", job.name);
                    failed += job.operations();
                }
            }
        }
    }
    failures.extend(check_outputs(&bench, &runs));
    bench.finish();

    let mismatch = traced.sweep_mismatch();
    if mismatch > SWEEP_TOLERANCE {
        failures.push(format!(
            "the layer spans miss the sweep's time by {:.1}% (tolerance {:.0}%)",
            mismatch * 100.0,
            SWEEP_TOLERANCE * 100.0
        ));
    }
    let path = Path::new(OUT_DIR).join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, spans::to_json(traced.tracer.spans()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("perfbench: spans written to {}", path.display());

    let correct = report(&failures);
    let values = traced.metrics(calib_ns);
    let line = metrics::result_line(correct, attempted, failed, &metrics::PER_LAYER, &values)?;
    Ok((line, correct))
}

/// Every output check, outside the timed phase; returns the failures.
fn check_outputs(bench: &Bench, runs: &[JobRows]) -> Vec<String> {
    let mut failures = Vec::new();
    let mut references = Vec::with_capacity(bench.jobs.len());
    for job in &bench.jobs {
        match Functional::of(&job.program) {
            Ok(reference) => references.push(reference),
            Err(e) => {
                failures.push(e);
                return failures;
            }
        }
    }
    let mut first: Vec<Option<&[RunRecord]>> = vec![None; bench.jobs.len()];
    for (i, rows) in runs {
        let job = &bench.jobs[*i];
        let names_match = rows.len() == job.designs.len()
            && rows
                .iter()
                .zip(&job.designs)
                .all(|(r, d)| r.workload == job.name && r.design == *d);
        if !names_match {
            failures.push(format!("{}: rows do not match the spec's cells", job.name));
        }
        failures.extend(
            rows.iter()
                .filter_map(|row| references[*i].check_row(row).err()),
        );
        match first[*i] {
            None => first[*i] = Some(rows),
            Some(earlier) if earlier != rows.as_slice() => {
                failures.push(format!("{}: a repeated job gave different rows", job.name));
            }
            Some(_) => {}
        }
    }
    for (i, (job, rows)) in bench.jobs.iter().zip(&first).enumerate() {
        let Some(rows) = rows else {
            failures.push(format!("{}: never completed", job.name));
            continue;
        };
        if let Some(path) = &job.file {
            failures.extend(check::check_tracefile(path, &job.program).err());
        }
        if i % bench.kind.state_check_stride() != 0 {
            continue;
        }
        for (design, row) in job.designs.iter().zip(rows.iter()) {
            let stats = job
                .source()
                .and_then(|source| references[i].check_committed_state(*design, source));
            match stats {
                Ok(stats) if stats != row.stats => {
                    failures.push(format!(
                        "{}: a per-cell run differs from the job's row",
                        row.label()
                    ));
                }
                Ok(_) => {}
                Err(e) => failures.push(format!("{}: {e}", job.name)),
            }
        }
        if bench.kind == Kind::ServeClosed {
            match job.spec.to_experiment().and_then(|e| e.run_serial()) {
                Ok(set) if set.records() != *rows => {
                    failures.push(format!(
                        "{}: served rows differ from Experiment rows",
                        job.name
                    ));
                }
                Ok(_) => {}
                Err(e) => failures.push(format!("{}: {e}", job.name)),
            }
        }
    }
    if bench.kind == Kind::Figure4Paper {
        let rows: Vec<RunRecord> = first
            .iter()
            .flatten()
            .flat_map(|r| r.iter().cloned())
            .collect();
        failures.extend(check::check_figure4_bands(&rows).err());
    }
    failures
}

fn report(failures: &[String]) -> bool {
    for f in failures {
        eprintln!("perfbench: check failed: {f}");
    }
    failures.is_empty()
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Host calibration: a fixed xorshift loop, median of five timings, in
/// ns per iteration. Lets figures from different hosts be compared.
fn calibrate() -> f64 {
    const ITERS: u32 = 20_000_000;
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x = black_box(0x2545_f491_4f6c_dd1du64);
            for _ in 0..ITERS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x = black_box(x);
            }
            black_box(x);
            t.elapsed().as_secs_f64() * 1e9 / f64::from(ITERS)
        })
        .collect();
    median(&times)
}
