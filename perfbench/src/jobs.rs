//! The four workloads: what each job is, how set-up prepares the jobs,
//! and how one job runs, in process or through `sqipd`.

use std::hint::black_box;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sqip::{
    all_workloads, by_name, generator, DesignRegistry, ExperimentSpec, ResultSet, RunRecord,
    SqDesign, SweepEngine, TraceReader, TraceSource, WorkloadRegistry, WorkloadSpec,
};
use sqip_service::{Connection, Request, Response, Server, ServerConfig, ServerHandle};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Figure4Paper,
    TracefileReplay,
    MemboundChase,
    ServeClosed,
}

impl Kind {
    #[must_use]
    pub fn parse(name: &str) -> Option<Kind> {
        Some(match name {
            "figure4-paper" => Kind::Figure4Paper,
            "tracefile-replay" => Kind::TracefileReplay,
            "membound-chase" => Kind::MemboundChase,
            "serve-closed" => Kind::ServeClosed,
            _ => return None,
        })
    }

    /// The per-cell reference checks (committed state, and served rows
    /// against `Experiment` rows) run on every this-many-th job of a
    /// round: on the long rounds a full pass would cost as much as a third
    /// of the timed phase.
    #[must_use]
    pub fn state_check_stride(self) -> usize {
        match self {
            Kind::TracefileReplay | Kind::ServeClosed => 5,
            Kind::Figure4Paper | Kind::MemboundChase => 1,
        }
    }
}

/// Figure 4's roster: five Table 3 models from each suite, at a quarter
/// of their paper length so a run holds enough jobs for a p90. Five per
/// suite (fifteen jobs a round) keeps the p50 and p90 of a whole number
/// of rounds inside one workload's block of samples rather than on the
/// edge between two.
const FIGURE4_ROSTER: [&str; 15] = [
    "gsm.e", "jpeg.d", "mesa.t", "mpeg2.d", "epic.d", // MediaBench
    "gzip", "vortex", "eon.c", "gcc", "parser", // SPECint
    "apsi", "equake", "wupwise", "art", "swim", // SPECfp
];
const FIGURE4_SCALE: u32 = 4;
const FIGURE4_DESIGNS: [SqDesign; 6] = [
    SqDesign::IdealOracle,
    SqDesign::Associative3,
    SqDesign::Associative5Replay,
    SqDesign::Associative5FwdPred,
    SqDesign::Indexed3Fwd,
    SqDesign::Indexed3FwdDly,
];

/// `tracefile-replay` records this many generator segments, each of
/// about `SEGMENT_INSTS` instructions: 1.4M records in all.
const SEGMENTS: u64 = 55;
const SEGMENT_INSTS: u64 = 25_000;

/// `serve-closed` submits this many distinct small specs a round: enough
/// programs that the seed's effect on any one of them averages out.
const SERVE_POOL: u64 = 125;
const SERVE_INSTS: u64 = 20_000;
const SERVE_DESIGNS: [SqDesign; 2] = [SqDesign::Indexed3FwdDly, SqDesign::Associative3];

const MEMBOUND_DESIGNS: [SqDesign; 2] = [SqDesign::IdealOracle, SqDesign::Indexed3FwdDly];

/// One job: an `ExperimentSpec` over one workload, and what is known
/// about that workload's program without simulating it.
#[derive(Debug)]
pub struct Job {
    pub kind: Kind,
    /// The workload's registry name, as the spec names it.
    pub name: String,
    /// The generated program behind the workload.
    pub program: WorkloadSpec,
    /// The SQTR file the workload replays (`tracefile-replay`).
    pub file: Option<PathBuf>,
    pub spec: ExperimentSpec,
    /// The job's input as it arrives: the spec's JSON.
    pub json: String,
    pub designs: Vec<SqDesign>,
}

impl Job {
    /// Result rows the job produces.
    #[must_use]
    pub fn cells(&self) -> u64 {
        self.designs.len() as u64
    }

    /// Operations the job counts as in `attempted`/`failed`: its cells
    /// on the batch workloads, the job itself on `serve-closed`.
    #[must_use]
    pub fn operations(&self) -> u64 {
        if self.kind == Kind::ServeClosed {
            1
        } else {
            self.cells()
        }
    }

    /// The workload's record stream, as its cells read it: the SQTR file,
    /// or the program's interpreter.
    ///
    /// # Errors
    ///
    /// The file cannot be opened or its header is bad.
    pub fn source(&self) -> Result<Box<dyn TraceSource>, String> {
        Ok(match &self.file {
            Some(path) => {
                let file =
                    std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
                Box::new(
                    TraceReader::new(std::io::BufReader::new(file)).map_err(|e| e.to_string())?,
                )
            }
            None => Box::new(self.program.source().map_err(|e| e.to_string())?),
        })
    }
}

/// A prepared workload: its round of jobs and, when asked for, a
/// running `sqipd` with one client connection.
pub struct Bench {
    pub kind: Kind,
    pub jobs: Vec<Job>,
    pub server: Option<Served>,
}

impl Bench {
    /// Set-up: resolves the roster (recording SQTR segments for
    /// `tracefile-replay`, registering the programs under names tagged
    /// `rep` elsewhere, so that every repetition registers afresh) and
    /// starts a server if `serve`.
    ///
    /// # Errors
    ///
    /// Any failure to build, record, register or serve.
    pub fn prepare(
        kind: Kind,
        seed: u64,
        rep: usize,
        out: &Path,
        serve: bool,
    ) -> Result<Bench, String> {
        let designs = designs(kind);
        let mut jobs = Vec::new();
        for (i, program) in roster(kind, seed).into_iter().enumerate() {
            let (name, file, program) = if kind == Kind::TracefileReplay {
                let path = out.join(format!("segment-{i:02}.sqtr"));
                record(&program, &path)?;
                (format!("tracefile:{}", path.display()), Some(path), program)
            } else {
                let name = format!("{}.{rep}", program.name);
                let program = program.with_name(name);
                (register(&program)?, None, program)
            };
            let spec = ExperimentSpec::new([name.clone()], designs.iter().map(|d| d.to_string()));
            jobs.push(Job {
                kind,
                json: spec.to_json(),
                name,
                program,
                file,
                spec,
                designs: designs.clone(),
            });
        }
        let server = if serve { Some(Served::start()?) } else { None };
        Ok(Bench { kind, jobs, server })
    }

    /// Stops the server, if one runs, and waits for it to end.
    pub fn finish(self) {
        if let Some(server) = self.server {
            server.stop();
        }
    }
}

fn designs(kind: Kind) -> Vec<SqDesign> {
    match kind {
        Kind::Figure4Paper => FIGURE4_DESIGNS.to_vec(),
        Kind::TracefileReplay => DesignRegistry::global()
            .names()
            .into_iter()
            .map(|n| n.parse().expect("registered names parse"))
            .collect(),
        Kind::MemboundChase => MEMBOUND_DESIGNS.to_vec(),
        Kind::ServeClosed => SERVE_DESIGNS.to_vec(),
    }
}

/// The programs of one round. The kernel mix of each is fixed by the
/// workload; `seed` drives each program's layout seed (addresses, chase
/// order, the in-register branch LCG), so every seed is a different
/// input with the same character.
fn roster(kind: Kind, seed: u64) -> Vec<WorkloadSpec> {
    let base: Vec<WorkloadSpec> = match kind {
        Kind::Figure4Paper => {
            // One pass over Table 3 (`by_name` builds all 47 models per
            // call), so set-up time is not mostly allocator churn.
            let table3 = all_workloads();
            FIGURE4_ROSTER
                .iter()
                .map(|n| {
                    let w = table3
                        .iter()
                        .find(|w| w.name == *n)
                        .expect("roster names are Table 3 models");
                    w.clone().with_iterations(w.iterations / FIGURE4_SCALE)
                })
                .collect()
        }
        Kind::TracefileReplay => (1..=SEGMENTS)
            .map(|k| generator::random_mix(k, SEGMENT_INSTS))
            .collect(),
        Kind::MemboundChase => vec![
            // 16 MB ring, a page per node: every hop misses L1, L2 and TLB.
            generator::pointer_chase(4096, 4096, 7_000),
            // 2 MB ring of cache lines: L2 misses, TLB mostly hits.
            generator::pointer_chase(32768, 64, 10_000),
            generator::stride_stream(4096, 12_000),
            generator::stride_stream(512, 16_000),
            by_name("mcf")
                .expect("mcf is a Table 3 model")
                .with_iterations(1000),
        ],
        Kind::ServeClosed => (1..=SERVE_POOL)
            .map(|k| generator::random_mix(100 + k, SERVE_INSTS))
            .collect(),
    };
    base.into_iter()
        .enumerate()
        .map(|(i, mut w)| {
            w.seed = splitmix(seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let name = format!("{}#{:08x}", w.name, w.seed >> 32);
            w.with_name(name)
        })
        .collect()
}

/// Registers `program` in the global workload registry and resolves it
/// back, as a job's spec will.
fn register(program: &WorkloadSpec) -> Result<String, String> {
    let registry = WorkloadRegistry::global();
    registry
        .register_spec(program.clone())
        .map_err(|e| e.to_string())?;
    let resolved = registry.resolve(&program.name).map_err(|e| e.to_string())?;
    Ok(resolved.name().to_string())
}

fn record(program: &WorkloadSpec, path: &Path) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut out = BufWriter::new(std::fs::File::create(path).map_err(io)?);
    let mut source = program.source().map_err(|e| e.to_string())?;
    sqip_isa::record_trace(&mut source, &mut out).map_err(|e| e.to_string())?;
    out.flush().map_err(io)
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs a job in process: parse and validate the spec, sweep it through
/// the shared-pass engine on one thread, render the CSV rows.
///
/// # Errors
///
/// The spec or sweep failure.
pub fn run_batch(job: &Job) -> Result<ResultSet, String> {
    let experiment = ExperimentSpec::from_json(&job.json)
        .and_then(|spec| spec.to_experiment())
        .map_err(|e| e.to_string())?;
    let set = SweepEngine::new()
        .threads(1)
        .run(&experiment)
        .map_err(|e| e.to_string())?;
    black_box(set.to_csv());
    Ok(set)
}

/// An in-process `sqipd` on loopback: one worker, one simulation thread
/// per job, no journal, no rate limit; one client connection.
pub struct Served {
    handle: ServerHandle,
    thread: JoinHandle<()>,
    conn: Connection,
}

/// What a served job streamed back, with the client's timestamps.
pub struct ServedOutcome {
    pub rows: Vec<RunRecord>,
    pub submitted: Instant,
    pub accepted: Instant,
    pub done: Instant,
    /// The server's own submit-to-done time.
    pub wall_ms: u64,
}

impl Served {
    fn start() -> Result<Served, String> {
        let cfg = ServerConfig {
            workers: 1,
            threads_per_job: 1,
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", cfg).map_err(|e| e.to_string())?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let handle = server.handle().map_err(|e| e.to_string())?;
        let thread = std::thread::Builder::new()
            .name("perfbench-sqipd".into())
            .spawn(move || server.run())
            .map_err(|e| e.to_string())?;
        let mut conn = Connection::connect(addr).map_err(|e| e.to_string())?;
        // A stalled server fails the job instead of hanging the run.
        conn.set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        conn.send(&Request::Ping).map_err(|e| e.to_string())?;
        match conn.recv().map_err(|e| e.to_string())? {
            Response::Pong => Ok(Served {
                handle,
                thread,
                conn,
            }),
            other => Err(format!("sqipd answered a ping with {other:?}")),
        }
    }

    /// Submits `job` and waits for all of its rows.
    ///
    /// # Errors
    ///
    /// A socket failure, or the job not completing with every row.
    pub fn submit(&mut self, id: &str, job: &Job) -> Result<ServedOutcome, String> {
        let submitted = Instant::now();
        let request = Request::Submit {
            id: id.to_string(),
            spec: job.spec.clone(),
            timeout_ms: None,
        };
        self.conn.send(&request).map_err(|e| e.to_string())?;
        let mut accepted = None;
        let mut rows = Vec::new();
        loop {
            match self.conn.recv().map_err(|e| e.to_string())? {
                Response::Accepted { id: rid, .. } if rid == id => accepted = Some(Instant::now()),
                Response::Row {
                    id: rid,
                    index,
                    record,
                } if rid == id => rows.push((index, record)),
                Response::Done {
                    id: rid, wall_ms, ..
                } if rid == id => {
                    let done = Instant::now();
                    rows.sort_by_key(|(index, _)| *index);
                    if rows.iter().enumerate().any(|(i, (index, _))| i != *index)
                        || rows.len() as u64 != job.cells()
                    {
                        return Err(format!("job {id}: rows arrived incomplete"));
                    }
                    return Ok(ServedOutcome {
                        rows: rows.into_iter().map(|(_, r)| r).collect(),
                        submitted,
                        accepted: accepted
                            .ok_or_else(|| format!("job {id}: done before accepted"))?,
                        done,
                        wall_ms,
                    });
                }
                Response::Rejected { reason, .. }
                | Response::Cancelled { reason, .. }
                | Response::Error { reason, .. } => return Err(format!("job {id}: {reason}")),
                _ => {}
            }
        }
    }

    fn stop(self) {
        drop(self.conn);
        self.handle.shutdown();
        if self.thread.join().is_err() {
            eprintln!("perfbench: the sqipd thread panicked");
        }
    }
}
