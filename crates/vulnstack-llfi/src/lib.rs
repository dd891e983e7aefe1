//! # vulnstack-llfi
//!
//! Software-level fault injection in the style of LLFI: instantaneous
//! single-bit flips in the destination value of one dynamic IR
//! instruction, user code only. This is the paper's **SVF** measurement:
//! it sees neither kernel activity, nor microarchitectural residency, nor
//! escaped faults — by construction.
//!
//! # Example
//!
//! ```no_run
//! use vulnstack_llfi::svf_campaign;
//! use vulnstack_workloads::WorkloadId;
//!
//! let w = WorkloadId::Crc32.build();
//! let tally = svf_campaign(&w.module, &w.input, &w.expected_output, 100, 42, 4);
//! println!("SVF = {:.3}", tally.vf().total());
//! ```

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vulnstack_core::effects::{FaultEffect, Tally};
use vulnstack_core::FaultModel;
use vulnstack_vir::instr::InstrClass;
use vulnstack_vir::interp::{Interpreter, RunStatus, SwFault, SwFaultModel};
use vulnstack_vir::Module;

/// Maps the runtime [`FaultModel`] onto VIR's own software fault
/// vocabulary ([`SwFaultModel`]): same four models, but `vulnstack-vir`
/// depends only on the ISA crate and cannot name the shared enum.
pub fn sw_model(model: FaultModel) -> SwFaultModel {
    match model {
        FaultModel::BitFlip => SwFaultModel::BitFlip,
        FaultModel::ByteCorrupt => SwFaultModel::ByteCorrupt,
        FaultModel::InstrSkip => SwFaultModel::InstrSkip,
        FaultModel::StuckAt => SwFaultModel::StuckAt,
    }
}

/// Classifies an interpreted run against the golden interpretation.
pub fn classify(
    status: RunStatus,
    output: &[u8],
    golden_status: RunStatus,
    golden_output: &[u8],
) -> FaultEffect {
    match status {
        RunStatus::Detected(_) => FaultEffect::Detected,
        RunStatus::Trapped(_) | RunStatus::Timeout => FaultEffect::Crash,
        RunStatus::Exited(code) => {
            let golden_code = match golden_status {
                RunStatus::Exited(c) => c,
                _ => return FaultEffect::Sdc,
            };
            if code == golden_code && output == golden_output {
                FaultEffect::Masked
            } else {
                FaultEffect::Sdc
            }
        }
    }
}

/// Golden interpretation of a module: status, output and the injectable
/// dynamic-instruction population.
#[derive(Debug, Clone)]
pub struct SvfGolden {
    /// Golden status.
    pub status: RunStatus,
    /// Golden output.
    pub output: Vec<u8>,
    /// Dynamic injectable (value-producing) instruction count — the
    /// sampling population.
    pub injectable: u64,
    /// Dynamic instruction budget for faulty runs.
    pub budget: u64,
}

/// Takes the golden run.
///
/// # Panics
///
/// Panics if the module's globals do not fit the interpreter memory
/// (workloads are sized well below the limit).
pub fn golden_run(module: &Module, input: &[u8]) -> SvfGolden {
    let out = Interpreter::new(module)
        .with_input(input.to_vec())
        .run()
        .expect("golden interpretation");
    SvfGolden {
        status: out.status,
        output: out.output,
        injectable: out.injectable,
        budget: out.dyn_instrs * 8 + 100_000,
    }
}

/// Runs one software-level injection.
pub fn run_one(module: &Module, input: &[u8], golden: &SvfGolden, fault: SwFault) -> FaultEffect {
    run_one_classed(module, input, golden, fault).0
}

/// [`run_one`] with campaign-metrics recording: a faulty run that burns
/// its whole dynamic-instruction budget (the software layer's watchdog)
/// is counted as a `watchdog_expiries` metric in addition to its
/// Crash-class record. The returned effect is identical to [`run_one`].
pub fn run_one_metered(
    module: &Module,
    input: &[u8],
    golden: &SvfGolden,
    fault: SwFault,
    metrics: Option<&vulnstack_core::trace::CampaignMetrics>,
) -> FaultEffect {
    let out = Interpreter::new(module)
        .with_input(input.to_vec())
        .with_budget(golden.budget)
        .with_fault(fault)
        .run()
        .expect("interpretation");
    if out.status == RunStatus::Timeout {
        if let Some(m) = metrics {
            m.record_watchdog_expiry();
        }
    }
    classify(out.status, &out.output, golden.status, &golden.output)
}

/// Runs one injection, also reporting the class of the IR instruction the
/// fault landed on.
pub fn run_one_classed(
    module: &Module,
    input: &[u8],
    golden: &SvfGolden,
    fault: SwFault,
) -> (FaultEffect, Option<InstrClass>) {
    let out = Interpreter::new(module)
        .with_input(input.to_vec())
        .with_budget(golden.budget)
        .with_fault(fault)
        .run()
        .expect("interpretation");
    (
        classify(out.status, &out.output, golden.status, &golden.output),
        out.injected_class,
    )
}

/// Runs an SVF campaign and breaks the results down by the *function*
/// containing the injected instruction — the per-code-region view
/// software designers use to decide where to apply protection (paper
/// §II.A's "pinpoint the vulnerability of different segments of the
/// program").
pub fn svf_breakdown_by_function(
    module: &Module,
    input: &[u8],
    n: usize,
    seed: u64,
) -> BTreeMap<String, Tally> {
    let golden = golden_run(module, input);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51F1_57AC_0DE5_EED5);
    let mut out: BTreeMap<String, Tally> = BTreeMap::new();
    for _ in 0..n {
        let fault = SwFault::flip(
            rng.gen_range(0..golden.injectable.max(1)),
            rng.gen_range(0..32),
        );
        let run = Interpreter::new(module)
            .with_input(input.to_vec())
            .with_budget(golden.budget)
            .with_fault(fault)
            .run()
            .expect("interpretation");
        let effect = classify(run.status, &run.output, golden.status, &golden.output);
        if let Some(fid) = run.injected_func {
            let name = module.functions[fid.0 as usize].name.clone();
            out.entry(name).or_default().add(effect);
        }
    }
    out
}

/// Runs an SVF campaign and breaks the results down by the class of the
/// injected IR instruction — which kinds of values are most fragile at
/// the software layer.
pub fn svf_breakdown(
    module: &Module,
    input: &[u8],
    n: usize,
    seed: u64,
) -> BTreeMap<InstrClass, Tally> {
    let golden = golden_run(module, input);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51F1_57AC_0DE5_EED5);
    let mut out: BTreeMap<InstrClass, Tally> = BTreeMap::new();
    for _ in 0..n {
        let fault = SwFault::flip(
            rng.gen_range(0..golden.injectable.max(1)),
            rng.gen_range(0..32),
        );
        let (effect, class) = run_one_classed(module, input, &golden, fault);
        if let Some(c) = class {
            out.entry(c).or_default().add(effect);
        }
    }
    out
}

/// Runs an SVF campaign of `n` uniformly-sampled faults. Deterministic
/// for a given `seed` at any thread count; parallelised over `threads`
/// workers with work stealing (`vulnstack_core::sched`).
pub fn svf_campaign(
    module: &Module,
    input: &[u8],
    expected_output: &[u8],
    n: usize,
    seed: u64,
    threads: usize,
) -> Tally {
    svf_campaign_metered(module, input, expected_output, n, seed, threads, None)
}

/// [`svf_campaign`] with optional campaign metrics: each injection is
/// recorded as a worker span in `metrics` (the software layer has no
/// checkpoints or microarchitectural extinction, so only throughput and
/// load-balance telemetry applies). Results are identical to the
/// unmetered campaign.
#[allow(clippy::too_many_arguments)]
pub fn svf_campaign_metered(
    module: &Module,
    input: &[u8],
    expected_output: &[u8],
    n: usize,
    seed: u64,
    threads: usize,
    metrics: Option<&vulnstack_core::trace::CampaignMetrics>,
) -> Tally {
    let golden = golden_run(module, input);
    debug_assert_eq!(golden.output, expected_output, "golden output mismatch");
    let faults = draw_faults(&golden, n, seed);

    let order: Vec<usize> = (0..faults.len()).collect();
    vulnstack_core::sched::map_ordered_metered(
        &faults,
        &order,
        threads,
        |_, &f| run_one_metered(module, input, &golden, f, metrics),
        metrics,
    )
    .into_iter()
    .collect()
}

/// Draws the campaign's fault sites from one seeded stream — the same
/// stream every SVF entry point uses, so streamed, metered and plain
/// campaigns inject identical sites for the same seed.
pub fn draw_faults(golden: &SvfGolden, n: usize, seed: u64) -> Vec<SwFault> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51F1_57AC_0DE5_EED5);
    (0..n)
        .map(|_| {
            SwFault::flip(
                rng.gen_range(0..golden.injectable.max(1)),
                rng.gen_range(0..32),
            )
        })
        .collect()
}

/// Draws `n` software faults over a model set. With the single legacy
/// model `[BitFlip]` this is exactly [`draw_faults`] — same RNG stream,
/// same faults — so model threading is a no-op for legacy campaigns.
/// With multiple models each fault draws its model uniformly, then a
/// `(target, bit)` site (every model applies at the software layer; the
/// bit selects the byte for byte corruption and is ignored by skips).
///
/// # Panics
///
/// Panics if `models` is empty.
pub fn draw_model_faults(
    golden: &SvfGolden,
    n: usize,
    seed: u64,
    models: &[FaultModel],
) -> Vec<SwFault> {
    assert!(!models.is_empty(), "no fault model given");
    let models: Vec<FaultModel> = FaultModel::ALL
        .into_iter()
        .filter(|m| models.contains(m))
        .collect();
    if models == [FaultModel::BitFlip] {
        return draw_faults(golden, n, seed);
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51F1_57AC_0DE5_EED5 ^ 0x9E37_79B9_7F4A_7C15);
    (0..n)
        .map(|_| {
            let model = models[rng.gen_range(0..models.len())];
            SwFault {
                target: rng.gen_range(0..golden.injectable.max(1)),
                bit: rng.gen_range(0..32),
                model: sw_model(model),
            }
        })
        .collect()
}

/// Runs a multi-model SVF campaign and breaks the tally down by fault
/// model — the software layer's view of the ARMORY-style multi-model
/// comparison. Deterministic for a given seed at any thread count.
pub fn svf_model_breakdown(
    module: &Module,
    input: &[u8],
    expected_output: &[u8],
    n: usize,
    seed: u64,
    models: &[FaultModel],
    threads: usize,
) -> BTreeMap<FaultModel, Tally> {
    let golden = golden_run(module, input);
    debug_assert_eq!(golden.output, expected_output, "golden output mismatch");
    let faults = draw_model_faults(&golden, n, seed, models);
    let order: Vec<usize> = (0..faults.len()).collect();
    let effects = vulnstack_core::sched::map_ordered_metered(
        &faults,
        &order,
        threads,
        |_, &f| run_one_metered(module, input, &golden, f, None),
        None,
    );
    let mut out: BTreeMap<FaultModel, Tally> = BTreeMap::new();
    for (f, e) in faults.iter().zip(effects) {
        let model = FaultModel::ALL
            .into_iter()
            .find(|&m| sw_model(m) == f.model)
            .expect("every SwFaultModel maps back");
        out.entry(model).or_default().add(e);
    }
    out
}

/// Results of a streaming SVF campaign: the tally accumulated effect by
/// effect in the sink fold, never a collected outcome vector.
#[derive(Debug)]
pub struct SvfStreamed {
    /// Tally over the completed injections.
    pub tally: Tally,
    /// Sites whose every injection attempt panicked, journaled or not
    /// (excluded from the tally).
    pub quarantined: Vec<vulnstack_core::sched::Quarantine>,
    /// Handle to the on-disk record stream, when a spill file was
    /// requested.
    pub records: Option<vulnstack_core::RecordHandle>,
    /// Replay/execute accounting (nothing replays without a journal).
    pub stats: vulnstack_core::ResumeStats,
}

/// Streaming, bounded-memory [`svf_campaign_metered`]: each settled
/// injection flows through the bounded sink channel
/// (`vulnstack_core::sink`) into the tally fold. With `journal`, it is
/// also appended durably to a crash-resumable journal (`llfi-svf`
/// fingerprint: workload, seed, sample count, golden run, schema
/// version), and a resume replays the journaled injections instantly,
/// refusing a journal from a different campaign. The tally is identical
/// to [`svf_campaign`] at any thread count.
///
/// # Errors
///
/// Any [`vulnstack_core::JournalError`]: filesystem failures, a missing
/// journal when resume is required, a fingerprint mismatch, a corrupt
/// journal body, or spill-file I/O errors.
#[allow(clippy::too_many_arguments)]
pub fn svf_campaign_streamed(
    module: &Module,
    input: &[u8],
    expected_output: &[u8],
    n: usize,
    seed: u64,
    threads: usize,
    journal: Option<&vulnstack_core::JournalOpts<'_>>,
    stream: vulnstack_core::StreamOpts<'_>,
    metrics: Option<&vulnstack_core::trace::CampaignMetrics>,
) -> Result<SvfStreamed, vulnstack_core::JournalError> {
    let golden = golden_run(module, input);
    debug_assert_eq!(golden.output, expected_output, "golden output mismatch");
    let faults = draw_faults(&golden, n, seed);
    let order: Vec<usize> = (0..faults.len()).collect();
    let fingerprint = |workload: &str| vulnstack_core::Fingerprint {
        engine: "llfi-svf".to_string(),
        workload: workload.to_string(),
        config: "vir".to_string(),
        structure: "-".to_string(),
        seed,
        samples: n as u64,
        params: format!(
            "injectable={};output={:016x};models={}",
            golden.injectable,
            vulnstack_core::journal::fnv1a64(&golden.output),
            FaultModel::BitFlip.name(),
        ),
        // Version 2: the fingerprint binds the fault-model set.
        version: 2,
    };
    let mut tally = Tally::default();
    let out = vulnstack_core::Campaign {
        items: &faults,
        order: &order,
        threads,
        journal: journal.map(|o| o.bind(fingerprint(o.workload), Vec::new())),
    }
    .run(
        stream,
        |_, &f| run_one_metered(module, input, &golden, f, metrics),
        |e: &FaultEffect| e.name().to_string(),
        FaultEffect::from_name,
        |_, payload| {
            if let Some(e) = FaultEffect::from_name(payload) {
                tally.add(e);
            }
        },
        metrics,
    )?;
    Ok(SvfStreamed {
        tally,
        quarantined: out.quarantined,
        records: out.records,
        stats: out.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vulnstack_workloads::WorkloadId;

    #[test]
    fn campaign_runs_and_is_deterministic() {
        let w = WorkloadId::Crc32.build();
        let a = svf_campaign(&w.module, &w.input, &w.expected_output, 40, 1, 1);
        let b = svf_campaign(&w.module, &w.input, &w.expected_output, 40, 1, 4);
        assert_eq!(a, b);
        assert_eq!(a.total(), 40);
        // SVF injections hit live values: expect plenty of SDCs for a
        // checksum (every bit matters).
        assert!(a.sdc > 0, "{a:?}");
    }

    #[test]
    fn function_breakdown_names_real_functions() {
        let w = WorkloadId::Qsort.build();
        let b = svf_breakdown_by_function(&w.module, &w.input, 40, 7);
        assert!(!b.is_empty());
        for name in b.keys() {
            assert!(
                w.module.functions.iter().any(|f| &f.name == name),
                "unknown function {name}"
            );
        }
        // qsort spends nearly all its time inside `quicksort`.
        assert!(b.contains_key("quicksort"), "{b:?}");
    }

    #[test]
    fn breakdown_covers_multiple_classes() {
        let w = WorkloadId::Sha.build();
        let b = svf_breakdown(&w.module, &w.input, 60, 3);
        assert!(b.len() >= 2, "expected several instruction classes: {b:?}");
        let total: u64 = b.values().map(|t| t.total()).sum();
        assert!(total > 0 && total <= 60);
        // Arithmetic is the bulk of sha's dynamic instructions.
        assert!(b.contains_key(&InstrClass::Arith), "{b:?}");
    }

    #[test]
    fn classification_mirrors_paper_classes() {
        let g = RunStatus::Exited(0);
        assert_eq!(
            classify(RunStatus::Exited(0), b"x", g, b"x"),
            FaultEffect::Masked
        );
        assert_eq!(
            classify(RunStatus::Exited(0), b"y", g, b"x"),
            FaultEffect::Sdc
        );
        assert_eq!(
            classify(
                RunStatus::Trapped(vulnstack_isa::TrapCause::AccessFault),
                b"x",
                g,
                b"x"
            ),
            FaultEffect::Crash
        );
        assert_eq!(
            classify(RunStatus::Timeout, b"", g, b"x"),
            FaultEffect::Crash
        );
        assert_eq!(
            classify(RunStatus::Detected(2), b"", g, b"x"),
            FaultEffect::Detected
        );
    }
}
