//! Output checks, made apart from the pipeline: the functional
//! interpreter (`sqip_isa::ArchState`) is the reference.

use std::collections::BTreeSet;
use std::path::Path;

use sqip::{Processor, RunRecord, SimConfig, SimStats, SqDesign, StepOutcome, WorkloadSpec};
use sqip_isa::{ArchState, Reg, TraceReader, TraceSource, NUM_REGS};
use sqip_types::{Addr, DataSize};

/// What a program does architecturally, from stepping it functionally.
#[derive(Debug, Clone)]
pub struct Functional {
    pub committed: u64,
    pub loads: u64,
    pub stores: u64,
    regs: Vec<u64>,
    /// Final value at every `(address, size)` a store wrote.
    mem: Vec<(Addr, DataSize, u64)>,
}

impl Functional {
    /// Steps `spec`'s program to `halt` from a fresh state.
    ///
    /// # Errors
    ///
    /// An interpreter fault, or no `halt` within the spec's budget.
    pub fn of(spec: &WorkloadSpec) -> Result<Functional, String> {
        let program = spec.build().map_err(|e| e.to_string())?;
        let mut state = ArchState::new();
        let (mut committed, mut loads, mut stores) = (0u64, 0u64, 0u64);
        let mut written = BTreeSet::new();
        while !state.is_halted() {
            if committed == spec.budget() {
                return Err(format!(
                    "{}: no halt within {} instructions",
                    spec.name, committed
                ));
            }
            let op = program
                .fetch(state.pc())
                .ok_or_else(|| format!("{}: pc out of range", spec.name))?
                .op;
            let out = state.step(&program).map_err(|e| e.to_string())?;
            committed += 1;
            if op.is_load() {
                loads += 1;
            } else if op.is_store() {
                stores += 1;
                let size = op.mem_size().ok_or("store without a size")?;
                written.insert((out.addr.ok_or("store without an address")?.0, size));
            }
        }
        let regs = (0..NUM_REGS as u8)
            .map(|r| state.reg(Reg::new(r)))
            .collect();
        let mem = written
            .into_iter()
            .map(|(a, size)| (Addr::new(a), size, state.mem().read(Addr::new(a), size)))
            .collect();
        Ok(Functional {
            committed,
            loads,
            stores,
            regs,
            mem,
        })
    }

    /// A result row's instruction counts equal the functional ones.
    ///
    /// # Errors
    ///
    /// Describes the first mismatch.
    pub fn check_row(&self, row: &RunRecord) -> Result<(), String> {
        let s = &row.stats;
        if (s.committed, s.loads, s.stores) == (self.committed, self.loads, self.stores) {
            Ok(())
        } else {
            Err(format!(
                "{}: committed/loads/stores {}/{}/{} but the program executes {}/{}/{}",
                row.label(),
                s.committed,
                s.loads,
                s.stores,
                self.committed,
                self.loads,
                self.stores
            ))
        }
    }

    /// Runs `design` to completion over `source` and compares the
    /// committed registers and memory with the functional final state.
    /// Returns the run's statistics.
    ///
    /// # Errors
    ///
    /// A simulation error or the first architectural mismatch.
    pub fn check_committed_state(
        &self,
        design: SqDesign,
        source: impl TraceSource,
    ) -> Result<SimStats, String> {
        let mut p = Processor::try_from_source(SimConfig::with_design(design), source)
            .map_err(|e| e.to_string())?;
        while p.step().map_err(|e| e.to_string())? == StepOutcome::Running {}
        for (r, want) in self.regs.iter().enumerate() {
            let got = p.committed_reg(Reg::new(r as u8));
            if got != *want {
                return Err(format!(
                    "{design}: r{r} commits {got:#x}, program leaves {want:#x}"
                ));
            }
        }
        for &(addr, size, want) in &self.mem {
            let got = p.committed_mem(addr, size);
            if got != want {
                return Err(format!(
                    "{design}: memory {:#x} commits {got:#x}, program leaves {want:#x}",
                    addr.0
                ));
            }
        }
        Ok(p.stats().clone())
    }
}

/// The SQTR file at `path` decodes record for record to `spec`'s stream.
///
/// # Errors
///
/// A decode error or the first differing record.
pub fn check_tracefile(path: &Path, spec: &WorkloadSpec) -> Result<(), String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut reader = TraceReader::new(std::io::BufReader::new(file)).map_err(|e| e.to_string())?;
    let mut source = spec.source().map_err(|e| e.to_string())?;
    let mut n = 0u64;
    loop {
        let got = reader.next_record().map_err(|e| e.to_string())?;
        let want = source.next_record().map_err(|e| e.to_string())?;
        if got != want {
            return Err(format!(
                "{}: record {n} decodes to {got:?}, generator gives {want:?}",
                path.display()
            ));
        }
        if got.is_none() {
            return Ok(());
        }
        n += 1;
    }
}

/// Figure 4's property bands over `rows` (every roster workload under
/// `ideal-oracle`, `associative-3`, `indexed-3-fwd` and
/// `indexed-3-fwd+dly`).
///
/// # Errors
///
/// Names the band that does not hold.
pub fn check_figure4_bands(rows: &[RunRecord]) -> Result<(), String> {
    let set = sqip::ResultSet::new(rows.to_vec());
    let gmean_rel = |design: SqDesign| -> Result<f64, String> {
        let rel: Option<Vec<f64>> = set
            .workload_names()
            .iter()
            .map(|w| set.relative_runtime(w, sqip::BASE_VARIANT, design, SqDesign::IdealOracle))
            .collect();
        rel.map(sqip::geomean)
            .ok_or_else(|| format!("{design} is missing a workload"))
    };
    let mut designs: Vec<SqDesign> = Vec::new();
    for row in rows {
        if !designs.contains(&row.design) {
            designs.push(row.design);
        }
    }
    for design in designs {
        let rel = gmean_rel(design)?;
        if rel < 1.0 {
            return Err(format!(
                "ideal-oracle is not the gmean floor: {design} at {rel:.4}"
            ));
        }
    }
    let assoc3 = gmean_rel(SqDesign::Associative3)?;
    let fwd = gmean_rel(SqDesign::Indexed3Fwd)?;
    let dly = gmean_rel(SqDesign::Indexed3FwdDly)?;
    if dly >= fwd {
        return Err(format!(
            "delay prediction does not beat indexed-3-fwd: {dly:.4} vs {fwd:.4}"
        ));
    }
    if (dly - assoc3).abs() > 0.06 {
        return Err(format!(
            "indexed-3-fwd+dly {dly:.4} is not within 0.06 of associative-3 {assoc3:.4}"
        ));
    }
    Ok(())
}
