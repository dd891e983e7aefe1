//! Per-layer timings, taken from the benchmark's own code around the
//! public calls of each layer. Nothing here is instrumented inside the
//! program: every span starts and ends at a call the benchmark makes.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use vulnstack_compiler::{compile, CompileOpts};
use vulnstack_core::effects::FaultEffect;
use vulnstack_core::journal::{Fingerprint, Journal};
use vulnstack_gefin::avf::{encode_record, InjectionRecord, ModelSite};
use vulnstack_gefin::prune::static_classifier;
use vulnstack_gefin::Prepared;
use vulnstack_kernel::SystemImage;
use vulnstack_microarch::ooo::HwStructure;
use vulnstack_microarch::snapshot::{CheckpointStore, DEFAULT_INTERVAL, DEFAULT_MAX_SNAPSHOTS};
use vulnstack_microarch::{CoreModel, FuncCore, OooCore};
use vulnstack_workloads::Workload;

use crate::util::proc_mib;

/// The golden-run cycle budget `Prepared::new` gives the checkpoint
/// recorder.
const GOLDEN_CYCLE_BUDGET: u64 = 2_000_000_000;
/// The instruction budget `FuncPrepared::new` gives the functional core.
const FUNC_INSTR_BUDGET: u64 = 400_000_000;

/// The preparation layers of one (workload, core model) pair, in the
/// order `Prepared::new` runs them, plus the golden runs of the other
/// simulators on the same program.
#[derive(Debug, Clone)]
pub struct PrepLayers {
    pub compile: Duration,
    pub image: Duration,
    /// `CheckpointStore::record`: the golden run plus capture.
    pub record: Duration,
    /// Resident-set growth across `CheckpointStore::record`.
    pub record_rss_mib: f64,
    pub snapshots: u64,
    pub golden_cycles: u64,
    /// `OooCore::new(..).run(budget)` from reset, no capture.
    pub golden: Duration,
    pub func_instrs: u64,
    pub func: Duration,
    pub llfi: Duration,
    pub classifier: Duration,
}

pub fn prep_layers(w: &Workload, model: CoreModel) -> Result<PrepLayers, String> {
    let cfg = model.config();
    let t = Instant::now();
    let compiled = compile(&w.module, cfg.isa, &CompileOpts::default())
        .map_err(|e| format!("compile {}: {e}", w.id.name()))?;
    let compile_t = t.elapsed();
    let t = Instant::now();
    let image = SystemImage::build(&compiled, &w.input)
        .map_err(|e| format!("image {}: {e}", w.id.name()))?;
    let image_t = t.elapsed();

    let rss0 = proc_mib(None, "VmRSS")?;
    let t = Instant::now();
    let (store, out) = CheckpointStore::record(
        &cfg,
        &image,
        DEFAULT_INTERVAL,
        DEFAULT_MAX_SNAPSHOTS,
        GOLDEN_CYCLE_BUDGET,
    );
    let record_t = t.elapsed();
    let record_rss_mib = (proc_mib(None, "VmRSS")? - rss0).max(0.0);
    let snapshots = store.len() as u64;
    drop(store);

    let t = Instant::now();
    let golden = OooCore::new(&cfg, &image).run(GOLDEN_CYCLE_BUDGET);
    let golden_t = t.elapsed();
    if golden.sim.cycles != out.sim.cycles || golden.sim.output != w.expected_output {
        return Err(format!(
            "{}/{model}: golden run from reset disagrees with the recorded one",
            w.id.name()
        ));
    }

    let t = Instant::now();
    let func = FuncCore::new(&image).run(FUNC_INSTR_BUDGET);
    let func_t = t.elapsed();
    if func.output != w.expected_output {
        return Err(format!(
            "{}: functional golden output is wrong",
            w.id.name()
        ));
    }

    let t = Instant::now();
    let llfi = vulnstack_llfi::golden_run(&w.module, &w.input);
    let llfi_t = t.elapsed();
    if llfi.output != w.expected_output {
        return Err(format!("{}: IR-level golden output is wrong", w.id.name()));
    }

    let t = Instant::now();
    std::hint::black_box(static_classifier(&image));
    let classifier_t = t.elapsed();

    Ok(PrepLayers {
        compile: compile_t,
        image: image_t,
        record: record_t,
        record_rss_mib,
        snapshots,
        golden_cycles: out.sim.cycles,
        golden: golden_t,
        func_instrs: func.instrs,
        func: func_t,
        llfi: llfi_t,
        classifier: classifier_t,
    })
}

/// Where one injection's host time went, phase by phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SiteTiming {
    pub restore: Duration,
    pub replay_cycles: u64,
    pub replay: Duration,
    pub inject: Duration,
    pub post_cycles: u64,
    pub post: Duration,
    pub extinct_check: Duration,
    pub extinct: bool,
    pub finish: Duration,
    pub total: Duration,
}

/// Re-executes one site through the public calls `run_one_inner` uses,
/// in its order: restore, replay to the injection cycle, inject, the
/// post-injection slices with the extinction check, finish, classify.
pub fn replay_site(
    prep: &Prepared,
    structure: HwStructure,
    site: &ModelSite,
) -> (InjectionRecord, SiteTiming) {
    let mut t = SiteTiming::default();
    let start = Instant::now();
    let mut core = prep.checkpoints.restore(site.cycle);
    t.restore = start.elapsed();

    let from = core.cycle();
    let p = Instant::now();
    core.run_until(site.cycle);
    t.replay = p.elapsed();
    t.replay_cycles = core.cycle() - from;

    let p = Instant::now();
    core.inject_model(structure, site.bit, site.model);
    t.inject = p.elapsed();

    let masked = InjectionRecord {
        cycle: site.cycle,
        bit: site.bit,
        model: site.model,
        effect: FaultEffect::Masked,
        fpm: None,
        fpm_cycle: None,
    };
    // The slice schedule of the campaign runner: 256 cycles doubling to
    // 4096, with an extinction check after each slice.
    let mut slice = 256u64;
    loop {
        let next = (core.cycle() + slice).min(prep.budget);
        slice = (slice * 2).min(4_096);
        let p = Instant::now();
        core.run_until(next);
        t.post += p.elapsed();
        if core.ended() || core.cycle() >= prep.budget {
            break;
        }
        let p = Instant::now();
        let extinct = core.fault_extinct();
        t.extinct_check += p.elapsed();
        if extinct {
            t.extinct = true;
            t.post_cycles = core.cycle() - site.cycle;
            t.total = start.elapsed();
            return (masked, t);
        }
    }
    t.post_cycles = core.cycle() - site.cycle;
    let p = Instant::now();
    let out = core.finish();
    let effect = FaultEffect::classify(
        out.sim.status,
        &out.sim.output,
        prep.golden.status,
        &prep.expected_output,
    );
    t.finish = p.elapsed();
    t.total = start.elapsed();
    (
        InjectionRecord {
            effect,
            fpm: out.fpm,
            fpm_cycle: out.fpm_cycle,
            ..masked
        },
        t,
    )
}

/// [`replay_site`] over a whole site list on `threads` workers that
/// claim sites in injection-cycle order, as the campaign scheduler
/// does. Returns `(encoded record, timing)` in sampling order.
pub fn replay_sites(
    prep: &Prepared,
    structure: HwStructure,
    sites: &[ModelSite],
    threads: usize,
) -> Vec<(String, SiteTiming)> {
    let mut order: Vec<usize> = (0..sites.len()).collect();
    order.sort_by_key(|&i| (sites[i].cycle, i));
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<(String, SiteTiming)>>> = Mutex::new(vec![None; sites.len()]);
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(&i) = order.get(k) else { break };
                let (rec, timing) = replay_site(prep, structure, &sites[i]);
                out.lock().expect("replay result lock poisoned")[i] =
                    Some((encode_record(&rec), timing));
            });
        }
    });
    out.into_inner()
        .expect("replay result lock poisoned")
        .into_iter()
        .map(|r| r.expect("every site was replayed"))
        .collect()
}

/// Journal layer timings over one campaign's own encoded records.
#[derive(Debug, Default)]
pub struct JournalTimings {
    pub append_us: Vec<f64>,
    pub flush_ms: Vec<f64>,
    pub resume_ms: Vec<f64>,
}

/// Drives `Journal::create`, `append_done`, `flush` (after every fifth
/// append, so each flush has records to sync, and at the end) and
/// `resume` over `records`, and checks that
/// the resumed journal replays exactly what was appended.
pub fn journal_layers(
    dir: &Path,
    label: &str,
    records: &[(u64, String)],
    acc: &mut JournalTimings,
) -> Result<(), String> {
    let path = dir.join("layer.journal");
    let fp = Fingerprint {
        engine: "perfbench".to_string(),
        workload: label.to_string(),
        config: "-".to_string(),
        structure: "-".to_string(),
        seed: 0,
        samples: records.len() as u64,
        params: String::new(),
        version: 1,
    };
    let err = |e: vulnstack_core::JournalError| e.to_string();
    let journal = Journal::create(&path, &fp).map_err(err)?;
    for (k, (index, payload)) in records.iter().enumerate() {
        let t = Instant::now();
        journal.append_done(*index, payload).map_err(err)?;
        acc.append_us.push(crate::util::us(t.elapsed()));
        if k % 5 == 4 || k + 1 == records.len() {
            let t = Instant::now();
            journal.flush().map_err(err)?;
            acc.flush_ms.push(crate::util::ms(t.elapsed()));
        }
    }
    drop(journal);
    let t = Instant::now();
    let (journal, replay) = Journal::resume(&path, &fp).map_err(err)?;
    acc.resume_ms.push(crate::util::ms(t.elapsed()));
    drop(journal);
    let _ = std::fs::remove_file(&path);
    let mut replayed: Vec<(u64, String)> = replay
        .entries
        .into_iter()
        .filter_map(|e| match e.kind {
            vulnstack_core::journal::EntryKind::Done(p) => Some((e.index, p)),
            _ => None,
        })
        .collect();
    replayed.sort_unstable_by_key(|r| r.0);
    if replayed != records {
        return Err(format!(
            "{label}: resumed journal replays {} records, not the {} appended",
            replayed.len(),
            records.len()
        ));
    }
    Ok(())
}
