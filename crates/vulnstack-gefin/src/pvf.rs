//! Architecture-level (PVF) fault-injection campaigns on the functional
//! full-system core.
//!
//! Faults are persistent single-bit flips in *architecturally visible*
//! state belonging to the program flow (paper §II.B): registers and
//! touched memory for the WD population, operand/immediate fields of
//! executed instructions for WOI, opcode/control-flow fields for WI.
//! Kernel instructions executed on behalf of the program are part of the
//! population — the key visibility difference from SVF.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use vulnstack_core::effects::{FaultEffect, Tally};
use vulnstack_core::journal::{fnv1a64, Fingerprint, JournalError, JournalOpts};
use vulnstack_core::sched::Quarantine;
use vulnstack_core::sink::{RecordHandle, StreamOpts};
use vulnstack_core::{Campaign, ResumeStats};
use vulnstack_isa::fields::bits_of_class;
use vulnstack_isa::{BitClass, Reg};
use vulnstack_microarch::func::{FuncCore, PvfFault, PvfMutation};

use crate::prepare::FuncPrepared;

/// PVF fault-propagation-model population (paper Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PvfMode {
    /// Wrong Data: registers and program-flow memory bytes.
    Wd,
    /// Wrong Operand or Immediate: operand fields of executed
    /// instructions.
    Woi,
    /// Wrong Instruction: opcode and control-flow fields of executed
    /// instructions.
    Wi,
}

impl PvfMode {
    /// All modes.
    pub const ALL: [PvfMode; 3] = [PvfMode::Wd, PvfMode::Woi, PvfMode::Wi];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            PvfMode::Wd => "WD",
            PvfMode::Woi => "WOI",
            PvfMode::Wi => "WI",
        }
    }
}

impl std::fmt::Display for PvfMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

fn classify_outcome(prep: &FuncPrepared, out: &vulnstack_microarch::SimOutcome) -> FaultEffect {
    FaultEffect::classify(
        out.status,
        &out.output,
        prep.golden.status,
        &prep.expected_output,
    )
}

/// Runs one WD injection: flip a register or program-flow memory bit at a
/// random dynamic instant.
fn run_wd(prep: &FuncPrepared, rng: &mut StdRng) -> FaultEffect {
    let at_instr = rng.gen_range(0..prep.golden.instrs);
    let xlen = prep.isa.xlen() as u64;
    let reg_bits = prep.isa.num_regs() as u64 * xlen;
    let mem_bits = prep.profile.touched_bytes.len() as u64 * 8;
    // The WD population splits evenly between the architectural register
    // file and loaded/stored data (PVF studies in the literature centre on
    // registers; weighting purely by bit count would drown them in memory
    // bits — see DESIGN.md).
    let use_reg = mem_bits == 0 || rng.gen_range(0..2) == 0;
    let mutation = if use_reg {
        let pick = rng.gen_range(0..reg_bits);
        PvfMutation::FlipReg {
            reg: Reg((pick / xlen) as u8),
            bit: (pick % xlen) as u8,
        }
    } else {
        let m = rng.gen_range(0..mem_bits);
        let idx = (m / 8) as usize % prep.profile.touched_bytes.len().max(1);
        PvfMutation::FlipMem {
            addr: prep.profile.touched_bytes[idx],
            bit: (m % 8) as u8,
        }
    };
    let out = FuncCore::new(&prep.image)
        .with_fault(PvfFault { at_instr, mutation })
        .run(prep.budget);
    classify_outcome(prep, &out)
}

/// Runs one WOI/WI injection: step to a random dynamic instruction, flip
/// a bit of the target class in its encoding (persistent text
/// corruption).
fn run_encoding(prep: &FuncPrepared, class: BitClass, rng: &mut StdRng) -> FaultEffect {
    // A few resampling attempts in case the chosen instruction has no bits
    // of the desired class (e.g. `syscall` has no operand bits).
    for _ in 0..16 {
        let k = rng.gen_range(0..prep.golden.instrs);
        let mut core = FuncCore::new(&prep.image);
        while core.icount() < k && core.step() {}
        if core.ended() {
            continue;
        }
        let pc = core.pc() as u32;
        let w = core.peek(pc, 4);
        let word = u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let candidates = bits_of_class(word, class);
        if candidates.is_empty() {
            continue;
        }
        let bit = candidates[rng.gen_range(0..candidates.len())];
        core.poke_bit(pc + bit / 8, (bit % 8) as u8);
        while !core.ended() && core.icount() < prep.budget {
            core.step();
        }
        let out = core.into_outcome();
        return classify_outcome(prep, &out);
    }
    // Could not place a fault of this class: architecturally masked.
    FaultEffect::Masked
}

/// Runs an architecture-level campaign of `n` faults in `mode`,
/// parallelised over `threads` workers with work stealing. Each fault is
/// seeded per-index, so the result is deterministic for a given `seed`
/// at any thread count.
pub fn pvf_campaign(
    prep: &FuncPrepared,
    mode: PvfMode,
    n: usize,
    seed: u64,
    threads: usize,
) -> Tally {
    let indices: Vec<usize> = (0..n).collect();
    vulnstack_core::sched::map(&indices, threads, |_, &i| run_indexed(prep, mode, seed, i))
        .into_iter()
        .collect()
}

/// Runs one PVF injection for campaign index `i` (the per-index seeding
/// shared by the in-memory and streamed campaigns).
fn run_indexed(prep: &FuncPrepared, mode: PvfMode, seed: u64, i: usize) -> FaultEffect {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37).wrapping_add(i as u64));
    match mode {
        PvfMode::Wd => run_wd(prep, &mut rng),
        PvfMode::Woi => run_encoding(prep, BitClass::Operand, &mut rng),
        PvfMode::Wi => run_encoding(prep, BitClass::Instruction, &mut rng),
    }
}

/// Results of a streaming PVF campaign: the tally accumulated effect by
/// effect in the sink fold, never a collected outcome vector.
#[derive(Debug)]
pub struct PvfStreamed {
    /// Tally over the completed injections.
    pub tally: Tally,
    /// Sites whose every injection attempt panicked, journaled or not
    /// (excluded from the tally).
    pub quarantined: Vec<Quarantine>,
    /// Handle to the on-disk record stream, when
    /// [`StreamOpts::spill`] was set.
    pub records: Option<RecordHandle>,
    /// Replay/execute accounting (nothing replays without a journal).
    pub stats: ResumeStats,
}

/// Streaming, bounded-memory [`pvf_campaign`]: each settled injection
/// flows through the bounded sink channel into the tally fold and, with
/// `journal`, into a crash-resumable journal (`gefin-pvf` fingerprint);
/// a resume replays the journaled injections instantly and runs only
/// the rest. The tally is identical to [`pvf_campaign`] at any thread
/// count.
///
/// # Errors
///
/// Any [`JournalError`] (journaled runs), or spill-file I/O errors.
#[allow(clippy::too_many_arguments)]
pub fn pvf_campaign_streamed(
    prep: &FuncPrepared,
    mode: PvfMode,
    n: usize,
    seed: u64,
    threads: usize,
    journal: Option<&JournalOpts<'_>>,
    stream: StreamOpts<'_>,
    metrics: Option<&vulnstack_core::trace::CampaignMetrics>,
) -> Result<PvfStreamed, JournalError> {
    let indices: Vec<usize> = (0..n).collect();
    let fingerprint = |workload: &str| Fingerprint {
        engine: "gefin-pvf".to_string(),
        workload: workload.to_string(),
        config: prep.isa.name().to_string(),
        structure: "-".to_string(),
        seed,
        samples: n as u64,
        params: format!(
            "mode={};golden_instrs={};output={:016x}",
            mode.name(),
            prep.golden.instrs,
            fnv1a64(&prep.expected_output)
        ),
        version: crate::avf::RECORD_VERSION,
    };
    let mut tally = Tally::default();
    let out = Campaign {
        items: &indices,
        order: &indices,
        threads,
        journal: journal.map(|o| o.bind(fingerprint(o.workload), Vec::new())),
    }
    .run(
        stream,
        |_, &i| run_indexed(prep, mode, seed, i),
        |e: &FaultEffect| e.name().to_string(),
        FaultEffect::from_name,
        |_, payload| {
            if let Some(e) = FaultEffect::from_name(payload) {
                tally.add(e);
            }
        },
        metrics,
    )?;
    Ok(PvfStreamed {
        tally,
        quarantined: out.quarantined,
        records: out.records,
        stats: out.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vulnstack_isa::Isa;
    use vulnstack_workloads::WorkloadId;

    #[test]
    fn wd_campaign_runs_and_mixes() {
        let w = WorkloadId::Crc32.build();
        let prep = FuncPrepared::new(&w, Isa::Va64).unwrap();
        let t = pvf_campaign(&prep, PvfMode::Wd, 30, 3, 4);
        assert_eq!(t.total(), 30);
        // Architectural faults in the program flow are much more likely
        // to matter than raw hardware bits, but masking still exists.
        assert!(t.masked > 0 || t.sdc + t.crash > 0);
    }

    #[test]
    fn wi_faults_skew_toward_crashes() {
        let w = WorkloadId::Smooth.build();
        let prep = FuncPrepared::new(&w, Isa::Va64).unwrap();
        let wi = pvf_campaign(&prep, PvfMode::Wi, 40, 5, 4);
        assert_eq!(wi.total(), 40);
        // Opcode/control-flow corruption should produce a solid share of
        // crashes (invalid opcodes, wild jumps).
        assert!(wi.crash > 0, "{wi:?}");
    }

    #[test]
    fn campaign_deterministic_across_thread_counts() {
        let w = WorkloadId::Crc32.build();
        let prep = FuncPrepared::new(&w, Isa::Va32).unwrap();
        let a = pvf_campaign(&prep, PvfMode::Woi, 16, 9, 1);
        let b = pvf_campaign(&prep, PvfMode::Woi, 16, 9, 4);
        assert_eq!(a, b);
    }
}
