//! `--reference`: regenerates the host reference figures the README
//! quotes — the calibration loop, the full Figure 4 sweep at one and two
//! worker threads, and SQTR decode from a file on disk.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use sqip::{all_workloads, Experiment, SqDesign, SweepEngine, TraceReader, Workload, WorkloadSpec};

use crate::stats::median;

const REPS: usize = 3;

/// Prints one line per figure.
///
/// # Errors
///
/// A sweep, record or decode failure.
pub fn run(calib_ns: f64, dir: &Path) -> Result<(), String> {
    println!("host.calib_ns_per_iter {calib_ns:.3}");
    println!(
        "available_parallelism {}",
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    let experiment = Experiment::new()
        .workloads(all_workloads().into_iter().map(Workload::from))
        .designs([
            SqDesign::IdealOracle,
            SqDesign::Associative3,
            SqDesign::Associative5Replay,
            SqDesign::Associative5FwdPred,
            SqDesign::Indexed3Fwd,
            SqDesign::Indexed3FwdDly,
        ]);
    for threads in [1, 2] {
        let times = (0..REPS)
            .map(|_| {
                let t = Instant::now();
                SweepEngine::new()
                    .threads(threads)
                    .run(&experiment)
                    .map_err(|e| e.to_string())?;
                Ok(t.elapsed().as_secs_f64())
            })
            .collect::<Result<Vec<f64>, String>>()?;
        let (lo, hi) = times
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &t| (lo.min(t), hi.max(t)));
        println!(
            "figure4_full_s threads={threads} median {:.2} min {lo:.2} max {hi:.2}",
            median(&times)
        );
    }

    let program: WorkloadSpec = sqip::generator::random_mix(0xbeef, 2_000_000);
    let path = dir.join("reference.sqtr");
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path).map_err(|e| e.to_string())?);
    let n = sqip::record_trace(&mut program.source().map_err(|e| e.to_string())?, &mut out)
        .map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    let times = (0..REPS)
        .map(|_| {
            let file = std::fs::File::open(&path).map_err(|e| e.to_string())?;
            let reader =
                TraceReader::new(std::io::BufReader::new(file)).map_err(|e| e.to_string())?;
            let t = Instant::now();
            let decoded = crate::layers::drain(reader)?;
            if decoded != n {
                return Err(format!("decoded {decoded} of {n} records"));
            }
            Ok(t.elapsed().as_secs_f64() * 1e9 / n as f64)
        })
        .collect::<Result<Vec<f64>, String>>();
    let _ = std::fs::remove_file(&path);
    println!(
        "sqtr_decode_file_ns_per_record {:.1} ({n} records of {})",
        median(&times?),
        program.name
    );
    Ok(())
}
