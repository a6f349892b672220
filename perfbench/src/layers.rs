//! The traced run. Every job runs once untraced, for comparison, and once
//! as a traced job: the production calls (spec, sweep, CSV and JSON
//! rows, the served job) and then the same simulation again, layer by
//! layer through each layer's public functions, each call in a span. The
//! re-run has the sweep's shape (one upstream pass, one oracle pass, one
//! pipeline per design reading the shared analysis), so its spans add up
//! to the `sqip.sweep` span; [`TracedRun::sweep_mismatch`] says how far.

use std::hint::black_box;
use std::time::Instant;

use sqip::{
    oracle_tap, ExperimentSpec, Processor, ResultSet, RunRecord, SchedCounters, SimConfig,
    SimStats, StepOutcome, SweepEngine, SweepTelemetry, TraceReader, TraceSource,
};
use sqip_isa::TraceRecord;

use crate::jobs::{run_batch, Job, Kind, Served, ServedOutcome};
use crate::spans::{self_times, Span, Tracer};
use crate::stats::median;

/// Spans and counts from the traced jobs of one run.
pub struct TracedRun {
    pub tracer: Tracer,
    c: Counts,
    overhead: Vec<f64>,
    admit_ms: Vec<f64>,
    run_ms: Vec<f64>,
    transport_ms: Vec<f64>,
    jobs: u32,
}

/// Work done inside the spans, summed over jobs.
#[derive(Default)]
struct Counts {
    /// Stream records per job, summed: what the trace, encode, oracle and
    /// sweep spans each processed once.
    records: u64,
    encode_bytes: u64,
    decode_records: u64,
    pipe: SimStats,
    squashed: u64,
    wheel_ops: u64,
    near_ops: u64,
    broadcasts: u64,
    ready_touches: u64,
    tee_high_water: u64,
    tee_peak_lag: u64,
    upstream_pulled: u64,
    rows: u64,
    specs: u64,
    /// Time in the production `sqip.sweep` spans.
    sweep_ns: f64,
    /// Time in the re-run spans that repeat the sweep's work.
    layers_ns: f64,
}

impl TracedRun {
    #[must_use]
    pub fn new() -> TracedRun {
        TracedRun {
            tracer: Tracer::new(),
            c: Counts::default(),
            overhead: Vec::new(),
            admit_ms: Vec::new(),
            run_ms: Vec::new(),
            transport_ms: Vec::new(),
            jobs: 0,
        }
    }

    /// Runs `job` untraced and then traced; returns the traced sweep's
    /// rows. Disagreements between the paths go to `failures`.
    ///
    /// # Errors
    ///
    /// Any layer call failing.
    pub fn job(
        &mut self,
        kind: Kind,
        job: &Job,
        server: &mut Served,
        failures: &mut Vec<String>,
    ) -> Result<Vec<RunRecord>, String> {
        let id = format!("traced-{}", self.jobs);
        let t = Instant::now();
        if kind == Kind::ServeClosed {
            server.submit(&id, job)?;
        } else {
            run_batch(job)?;
        }
        let untraced = t.elapsed().as_secs_f64();

        let first = self.tracer.spans().len();
        let out = self
            .tracer
            .job(self.jobs, |t| traced_job(t, &id, job, server))?;
        let (set, telemetry, served) = (out.set, out.telemetry, out.served);
        self.jobs += 1;

        let spans = &self.tracer.spans()[first..];
        let production: &[&str] = if kind == Kind::ServeClosed {
            &["service.job"]
        } else {
            &["sqip.spec", "sqip.sweep", "sqip.results.csv"]
        };
        self.overhead
            .push(duration_of(spans, production) / 1e9 / untraced);
        // The sweep's upstream is the segment file on tracefile-replay and
        // the program's interpreter elsewhere.
        let upstream = if job.file.is_some() {
            "isa.decode"
        } else {
            "workloads.trace"
        };
        self.c.sweep_ns += duration_of(spans, &["sqip.sweep"]);
        self.c.layers_ns += duration_of(spans, &[upstream, "core.oracle", "core.pipeline"]);
        self.admit_ms.push(ms(served.accepted - served.submitted));
        self.run_ms.push(served.wall_ms as f64);
        self.transport_ms
            .push(ms(served.done - served.submitted) - served.wall_ms as f64);

        let rows = set.records().to_vec();
        if served.rows != rows {
            failures.push(format!(
                "{}: served rows differ from the in-process sweep",
                job.name
            ));
        }
        let c = &mut self.c;
        for (row, (stats, sched)) in rows.iter().zip(&out.pipes) {
            if row.stats != *stats {
                failures.push(format!(
                    "{}: the per-cell pipeline run differs from the sweep",
                    row.label()
                ));
            }
            add_stats(&mut c.pipe, stats);
            c.squashed += stats.squashed;
            if let Some(s) = sched {
                c.wheel_ops += s.wheel_ops;
                c.near_ops += s.near_ops;
                c.broadcasts += s.broadcasts;
                c.ready_touches += s.ready_touches;
            }
        }
        let len = rows.first().map_or(0, |r| r.stats.committed);
        c.records += len;
        c.rows += rows.len() as u64;
        c.specs += 1;
        c.upstream_pulled += if telemetry.groups.is_empty() {
            // Every cell pulled the stream itself.
            len * rows.len() as u64
        } else {
            telemetry.groups.iter().map(|g| g.records_pulled).sum()
        };
        for g in &telemetry.groups {
            c.tee_high_water = c.tee_high_water.max(g.ring_high_water);
            c.tee_peak_lag = c
                .tee_peak_lag
                .max(g.peak_lag.iter().copied().max().unwrap_or(0));
        }
        c.encode_bytes += out.encoded_bytes;
        c.decode_records += out.decoded;
        Ok(rows)
    }

    /// Every per-layer metric, in declaration order.
    #[must_use]
    pub fn metrics(&self, calib_ns: f64) -> Vec<(&'static str, f64)> {
        let spans = self.tracer.spans();
        let dur = |name: &str| duration_of(spans, &[name]);
        let selfs = self_times(spans);
        let self_ms_per_job = |layer: &str| {
            let ns: u64 = spans
                .iter()
                .zip(&selfs)
                .filter(|(s, _)| s.layer() == layer)
                .map(|(_, n)| n)
                .sum();
            ratio(ns as f64 / 1e6, u64::from(self.jobs))
        };
        let c = &self.c;
        let p = &c.pipe;
        let kinst = |n: u64| ratio(n as f64 * 1e3, p.committed);
        let per_inst = |n: u64| ratio(n as f64, p.committed);
        vec![
            (
                "workloads.trace_ns_per_record",
                ratio(dur("workloads.trace"), c.records),
            ),
            (
                "isa.encode_ns_per_record",
                ratio(dur("isa.encode"), c.records),
            ),
            (
                "isa.bytes_per_record",
                ratio(c.encode_bytes as f64, c.records),
            ),
            (
                "isa.decode_ns_per_record",
                ratio(dur("isa.decode"), c.decode_records),
            ),
            ("isa.tee_ring_high_water", c.tee_high_water as f64),
            ("isa.tee_peak_lag", c.tee_peak_lag as f64),
            (
                "core.oracle.ns_per_record",
                ratio(dur("core.oracle"), c.records),
            ),
            (
                "core.pipeline.ns_per_inst",
                ratio(dur("core.pipeline"), p.committed),
            ),
            (
                "core.pipeline.ns_per_cycle",
                ratio(dur("core.pipeline"), p.cycles),
            ),
            ("core.pipeline.cycles_per_inst", per_inst(p.cycles)),
            ("core.pipeline.wheel_ops_per_inst", per_inst(c.wheel_ops)),
            ("core.pipeline.near_ops_per_inst", per_inst(c.near_ops)),
            ("core.pipeline.broadcasts_per_inst", per_inst(c.broadcasts)),
            (
                "core.pipeline.ready_touches_per_inst",
                per_inst(c.ready_touches),
            ),
            (
                "core.pipeline.commit_ratio",
                ratio(p.committed as f64, p.committed + c.squashed),
            ),
            ("core.pipeline.replays_per_kinst", kinst(p.replays)),
            ("core.pipeline.flushes_per_kinst", kinst(p.flushes)),
            ("mem.l1_misses_per_kinst", kinst(p.l1.misses)),
            ("mem.l2_misses_per_kinst", kinst(p.l2.misses)),
            ("mem.tlb_misses_per_kinst", kinst(p.tlb.misses)),
            ("queues.mis_forwards_per_kinst", kinst(p.mis_forwards)),
            ("queues.re_executions_per_kinst", kinst(p.re_executions)),
            (
                "queues.reexec_port_stalls_per_kinst",
                kinst(p.reexec_port_stalls),
            ),
            ("predictors.loads_delayed_per_kinst", kinst(p.loads_delayed)),
            (
                "predictors.branch_mispredicts_per_kinst",
                kinst(p.branch_mispredicts),
            ),
            (
                "sqip.sweep.upstream_passes",
                ratio(c.upstream_pulled as f64, c.records),
            ),
            (
                "sqip.results.csv_ns_per_row",
                ratio(dur("sqip.results.csv"), c.rows),
            ),
            (
                "sqip.results.json_us_per_row",
                ratio(dur("sqip.results.json") / 1e3, c.rows),
            ),
            (
                "sqip.spec.validate_us",
                ratio(dur("sqip.spec") / 1e3, c.specs),
            ),
            ("service.admit_ms_p50", median(&self.admit_ms)),
            ("service.run_ms_p50", median(&self.run_ms)),
            ("service.transport_ms_p50", median(&self.transport_ms)),
            ("workloads.self_ms_per_job", self_ms_per_job("workloads")),
            ("isa.self_ms_per_job", self_ms_per_job("isa")),
            ("core.self_ms_per_job", self_ms_per_job("core")),
            ("sqip.self_ms_per_job", self_ms_per_job("sqip")),
            ("service.self_ms_per_job", self_ms_per_job("service")),
            ("trace.sweep_mismatch", self.sweep_mismatch()),
            ("trace.overhead_ratio", median(&self.overhead)),
            ("trace.jobs", f64::from(self.jobs)),
            ("host.calib_ns_per_iter", calib_ns),
        ]
    }

    /// How far the layer-by-layer re-run misses the production sweep it
    /// repeats, over all traced jobs: `|upstream + core.oracle +
    /// core.pipeline - sqip.sweep| / sqip.sweep`, where the upstream span
    /// is `isa.decode` on tracefile-replay and `workloads.trace` elsewhere.
    #[must_use]
    pub fn sweep_mismatch(&self) -> f64 {
        if self.c.sweep_ns == 0.0 {
            0.0
        } else {
            (self.c.layers_ns - self.c.sweep_ns).abs() / self.c.sweep_ns
        }
    }
}

/// What one traced job produced.
struct TracedOut {
    set: ResultSet,
    telemetry: SweepTelemetry,
    served: ServedOutcome,
    /// Per design: the pipeline run's statistics and scheduler counters.
    pipes: Vec<(SimStats, Option<SchedCounters>)>,
    encoded_bytes: u64,
    decoded: u64,
}

fn traced_job(
    t: &mut Tracer,
    id: &str,
    job: &Job,
    server: &mut Served,
) -> Result<TracedOut, String> {
    let experiment = t
        .span("sqip.spec", |_| {
            ExperimentSpec::from_json(&job.json).and_then(|spec| spec.to_experiment())
        })
        .map_err(|e| e.to_string())?;
    let (set, telemetry) = t
        .span("sqip.sweep", |_| {
            SweepEngine::new()
                .threads(1)
                .run_with_telemetry(&experiment)
        })
        .map_err(|e| e.to_string())?;
    t.span("sqip.results.csv", |_| black_box(set.to_csv()));
    t.span("sqip.results.json", |_| {
        black_box(set.iter().map(|r| r.to_json().len()).sum::<usize>())
    });
    let served = t.span("service.job", |t| {
        let out = server.submit(id, job)?;
        t.record("service.admit", out.submitted, out.accepted);
        t.record("service.run", out.accepted, out.done);
        Ok::<_, String>(out)
    })?;

    let trace = t
        .span("workloads.trace", |_| job.program.trace())
        .map_err(|e| e.to_string())?;
    let bytes = t
        .span("isa.encode", |_| {
            let mut buf = Vec::new();
            sqip::record_trace(&mut trace.stream(), &mut buf).map(|_| buf)
        })
        .map_err(|e| e.to_string())?;
    let decoded = t.span("isa.decode", |_| match &job.file {
        Some(path) => {
            let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
            drain(TraceReader::new(std::io::BufReader::new(file)).map_err(|e| e.to_string())?)
        }
        None => drain(TraceReader::new(&bytes[..]).map_err(|e| e.to_string())?),
    })?;
    if decoded != trace.len() as u64 {
        return Err(format!(
            "{}: decoded {decoded} of {} records",
            job.name,
            trace.len()
        ));
    }
    // One oracle pass over the whole stream, as the sweep's tap makes it;
    // a feed window of the stream's length keeps every record's analysis
    // for the pipelines below.
    let feed = t.span("core.oracle", |_| {
        let (tap, feed) = oracle_tap(trace.stream(), trace.len());
        drain(tap).map(|_| feed)
    })?;
    let mut pipes = Vec::with_capacity(job.designs.len());
    for &design in &job.designs {
        let pipe = t.span("core.pipeline", |_| {
            let mut p = Processor::try_from_shared(
                SimConfig::with_design(design),
                trace.stream(),
                feed.clone(),
            )?;
            while p.step()? == StepOutcome::Running {}
            Ok::<_, sqip::SimError>((p.stats().clone(), p.sched_counters()))
        });
        pipes.push(pipe.map_err(|e| e.to_string())?);
    }
    Ok(TracedOut {
        set,
        telemetry,
        served,
        pipes,
        encoded_bytes: bytes.len() as u64,
        decoded,
    })
}

pub fn drain(mut source: impl TraceSource) -> Result<u64, String> {
    let mut buf = [TraceRecord::default(); 64];
    let mut n = 0u64;
    loop {
        let got = source.next_block(&mut buf).map_err(|e| e.to_string())?;
        if got == 0 {
            return Ok(n);
        }
        n += got as u64;
    }
}

fn add_stats(sum: &mut SimStats, s: &SimStats) {
    sum.committed += s.committed;
    sum.cycles += s.cycles;
    sum.replays += s.replays;
    sum.flushes += s.flushes;
    sum.mis_forwards += s.mis_forwards;
    sum.re_executions += s.re_executions;
    sum.reexec_port_stalls += s.reexec_port_stalls;
    sum.loads_delayed += s.loads_delayed;
    sum.branch_mispredicts += s.branch_mispredicts;
    sum.l1.misses += s.l1.misses;
    sum.l2.misses += s.l2.misses;
    sum.tlb.misses += s.tlb.misses;
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn duration_of(spans: &[Span], names: &[&str]) -> f64 {
    spans
        .iter()
        .filter(|s| names.contains(&s.name))
        .map(|s| s.duration_ns() as f64)
        .sum()
}

fn ratio(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}
