//! Exactness of equivalence-class pruning: the pruned campaign must be a
//! pure optimisation, producing per-site records — and therefore AVF
//! tallies and FPM distributions — bit-identical to the full campaign's,
//! across workloads, core models, thread counts, and a kill-and-resume
//! of the pruned campaign itself. This is the test the speedup bench
//! (`ablation_pruning_speedup`) leans on: any wall-clock win it reports
//! is only meaningful because these assertions hold.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use vulnstack_core::{JournalError, JournalOpts, ResumeMode, RunPolicy, StreamOpts};
use vulnstack_gefin::{
    avf_campaign, avf_campaign_models, avf_campaign_models_streamed, decode_record,
    per_model_tallies, run_one_model, temporal_campaign, temporal_campaign_pruned, AvfStreamed,
    InjectionPlan, InjectionRecord, Prepared, PruneStats,
};
use vulnstack_microarch::ooo::HwStructure;
use vulnstack_microarch::{CoreModel, FaultModel};
use vulnstack_workloads::WorkloadId;

const N: usize = 32;
const SEED: u64 = 17;
const STRUCTURE: HwStructure = HwStructure::RegisterFile;

fn prep_crc32_a72() -> &'static Prepared {
    static PREP: OnceLock<Prepared> = OnceLock::new();
    PREP.get_or_init(|| {
        let w = WorkloadId::Crc32.build();
        Prepared::new(&w, CoreModel::A72).expect("prepare crc32/A72")
    })
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vulnstack-prune-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn opts<'a>(path: &'a Path, mode: ResumeMode) -> JournalOpts<'a> {
    JournalOpts {
        path,
        mode,
        policy: RunPolicy::default(),
        workload: "crc32",
    }
}

/// Sorted journal body lines (header excluded): completion order varies
/// with the thread count, the record *set* must not.
fn sorted_entries(path: &Path) -> Vec<String> {
    let content = std::fs::read_to_string(path).unwrap();
    let mut lines: Vec<String> = content.lines().skip(1).map(String::from).collect();
    lines.sort();
    lines
}

/// Truncates a completed *pruned* journal back to its header, its
/// `class-table` metadata line, and `keep` record lines, then appends a
/// torn half-record — the on-disk state a SIGKILL mid-append leaves.
fn interrupt_pruned_journal(full: &Path, target: &Path, keep: usize) {
    let content = std::fs::read_to_string(full).unwrap();
    assert!(
        content.lines().nth(1).is_some_and(|l| l.starts_with("M|")),
        "pruned journal must carry its class-table metadata line"
    );
    let kept: Vec<&str> = content.lines().take(2 + keep).collect();
    let mut torn = format!("{}\n", kept.join("\n"));
    torn.push_str("R|999|half-written");
    std::fs::write(target, torn).unwrap();
}

/// The journaled, pruned bit-flip campaign over `plan`: the campaign,
/// its pruning accounting, and every record it folded (replayed and
/// fresh, via the subscriber tee) in sampling order.
fn pruned_journaled(
    plan: &InjectionPlan,
    threads: usize,
    journal: &JournalOpts<'_>,
) -> Result<(AvfStreamed, Option<PruneStats>, Vec<InjectionRecord>), JournalError> {
    let seen = Mutex::new(Vec::new());
    let tee = |i: u64, p: &str| {
        let rec = decode_record(p).expect("engine payloads decode");
        seen.lock().unwrap().push((i, rec));
    };
    let (out, stats) = avf_campaign_models_streamed(
        prep_crc32_a72(),
        STRUCTURE,
        plan,
        &[FaultModel::BitFlip],
        threads,
        Some(journal),
        StreamOpts {
            tee: Some(&tee),
            ..StreamOpts::from_env()
        },
        None,
    )?;
    let mut seen = seen.into_inner().unwrap();
    seen.sort_by_key(|&(i, _)| i);
    Ok((out, stats, seen.into_iter().map(|(_, r)| r).collect()))
}

#[test]
fn pruned_campaign_is_bit_identical_across_workloads_models_and_threads() {
    for (wid, model) in [
        (WorkloadId::Qsort, CoreModel::A9),
        (WorkloadId::Qsort, CoreModel::A72),
        (WorkloadId::Crc32, CoreModel::A9),
        (WorkloadId::Crc32, CoreModel::A72),
    ] {
        let w = wid.build();
        let prep = Prepared::new(&w, model).unwrap();
        let full = avf_campaign(&prep, STRUCTURE, N, SEED, 4);
        for threads in [1, 4] {
            let (pruned, stats) = avf_campaign_models(
                &prep,
                STRUCTURE,
                &InjectionPlan::Pruned { n: N, seed: SEED },
                &[FaultModel::BitFlip],
                threads,
                None,
            );
            let label = format!("{}/{} threads={threads}", wid.name(), model.name());
            assert_eq!(
                pruned.records, full.records,
                "{label}: pruned records must be bit-identical to the full campaign"
            );
            assert_eq!(pruned.tally, full.tally, "{label}");
            // FpmDist carries no equality; record equality already pins
            // the distribution, spot-check the derived HVF too.
            assert!((pruned.hvf() - full.hvf()).abs() < 1e-12, "{label}");
            let stats = stats.expect("pruned plan reports stats");
            assert_eq!(stats.sites, N as u64, "{label}");
            assert!(
                stats.sites_pruned() > 0,
                "{label}: a register-file campaign must prune something: {stats:?}"
            );
        }
    }
}

/// The model-aware pruner must stay a pure optimisation for every fault
/// model: the pruned campaign's records are bit-identical to running
/// each drawn `(cycle, bit, model)` site individually. `bit-flip` alone
/// is covered by the legacy equivalence test above; here the other
/// models and the mixed set get the same guarantee. The per-model dead
/// arguments differ (a next-access write kills a transient flip but not
/// a stuck-at; instr-skip classes key on the next dispatch), so each
/// set exercises a different proof.
#[test]
fn model_aware_pruning_is_bit_identical_per_model_and_mixed() {
    let prep = prep_crc32_a72();
    let n = 10;
    let sets: [&[FaultModel]; 4] = [
        &[FaultModel::ByteCorrupt],
        &[FaultModel::InstrSkip],
        &[FaultModel::StuckAt],
        &FaultModel::ALL,
    ];
    for models in sets {
        let label: Vec<&str> = models.iter().map(|m| m.name()).collect();
        let label = label.join("+");
        let (full, none) = avf_campaign_models(
            prep,
            STRUCTURE,
            &InjectionPlan::Sampled { n, seed: SEED },
            models,
            4,
            None,
        );
        assert!(none.is_none(), "{label}: sampled plans report no stats");
        let (pruned, stats) = avf_campaign_models(
            prep,
            STRUCTURE,
            &InjectionPlan::Pruned { n, seed: SEED },
            models,
            4,
            None,
        );
        assert_eq!(
            pruned.records, full.records,
            "{label}: pruned records must be bit-identical to individual runs"
        );
        assert_eq!(pruned.tally, full.tally, "{label}");
        let stats = stats.expect("pruned plan reports stats");
        assert_eq!(stats.sites, n as u64, "{label}");
    }
}

/// An ARMORY-style exhaustive (site, model) sweep completes under
/// pruning, covers every pair exactly once at the pinned cycle, and the
/// pruner's verdicts spot-check against individual injections.
#[test]
fn exhaustive_model_sweep_completes_under_pruning() {
    let prep = prep_crc32_a72();
    let cycle = prep.golden.cycles / 2;
    // Byte-corrupt (site space bits/8) plus the single-site instr-skip:
    // a full multi-model product small enough for a debug-build test.
    let models = [FaultModel::ByteCorrupt, FaultModel::InstrSkip];
    let (r, stats) = avf_campaign_models(
        prep,
        STRUCTURE,
        &InjectionPlan::Exhaustive { cycle },
        &models,
        4,
        None,
    );
    let expected: u64 = models.iter().map(|m| m.sites(STRUCTURE, &prep.cfg)).sum();
    let stats = stats.expect("exhaustive plans execute through the pruner");
    assert_eq!(stats.sites, expected);
    assert_eq!(r.records.len() as u64, expected);
    assert!(r.records.iter().all(|rec| rec.cycle == cycle));
    assert!(
        stats.dead_masked > 0,
        "an exhaustive sweep must prune dead sites: {stats:?}"
    );
    // Every requested model appears in the tallies, each covering its
    // whole site space.
    let tallies = per_model_tallies(&r.records);
    assert_eq!(tallies.len(), models.len());
    for (m, t, _) in &tallies {
        assert_eq!(t.total(), m.sites(STRUCTURE, &prep.cfg), "{m:?}");
    }
    // Spot-check exactness against individual injections at both ends
    // and the middle of the site space.
    for idx in [0, r.records.len() / 2, r.records.len() - 1] {
        let rec = r.records[idx];
        let site = vulnstack_gefin::ModelSite {
            cycle: rec.cycle,
            bit: rec.bit,
            model: rec.model,
        };
        assert_eq!(
            run_one_model(prep, STRUCTURE, site),
            rec,
            "site {idx} must match its individual run"
        );
    }
}

#[test]
fn pruned_temporal_sweep_matches_full_sweep() {
    let prep = prep_crc32_a72();
    let full = temporal_campaign(prep, STRUCTURE, 4, 8, SEED, 4);
    for threads in [1, 4] {
        let (pruned, stats) = temporal_campaign_pruned(prep, STRUCTURE, 4, 8, SEED, threads, None);
        assert_eq!(pruned.tallies, full.tallies, "threads={threads}");
        assert_eq!(pruned.bounds, full.bounds);
        assert_eq!(stats.sites, 32);
    }
}

#[test]
fn pruned_kill_and_resume_is_bit_identical() {
    let prep = prep_crc32_a72();
    let plan = InjectionPlan::Pruned { n: N, seed: SEED };
    let baseline = avf_campaign(prep, STRUCTURE, N, SEED, 4);

    // Uninterrupted pruned journaled run matches the plain full campaign.
    let full = tmp("pruned-full.journal");
    let _ = std::fs::remove_file(&full);
    let (out, stats, records) =
        pruned_journaled(&plan, 4, &opts(&full, ResumeMode::Fresh)).unwrap();
    assert_eq!(records, baseline.records);
    assert_eq!(out.stats.executed, N);
    assert!(out.quarantined.is_empty());
    assert!(stats.expect("pruned stats").sites_pruned() > 0);

    // Kill mid-campaign, resume at different thread counts: identical
    // records, identical journal contents, and the class-table metadata
    // must agree (the resumed run rebuilds the table and verifies).
    for threads in [1, 4] {
        let path = tmp(&format!("pruned-killed-t{threads}.journal"));
        interrupt_pruned_journal(&full, &path, 9);
        let (resumed, _, records) =
            pruned_journaled(&plan, threads, &opts(&path, ResumeMode::ResumeRequired)).unwrap();
        assert_eq!(
            records, baseline.records,
            "threads={threads}: resumed pruned records must be bit-identical"
        );
        assert_eq!(resumed.stats.replayed, 9, "threads={threads}");
        assert_eq!(resumed.stats.executed, N - 9, "threads={threads}");
        assert!(resumed.stats.truncated_bytes > 0);
        assert_eq!(
            sorted_entries(&path),
            sorted_entries(&full),
            "threads={threads}: completed journals must hold the same records"
        );
        let _ = std::fs::remove_file(&path);
    }
    let _ = std::fs::remove_file(&full);
}

#[test]
fn pruned_resume_refuses_a_damaged_class_table() {
    let plan = InjectionPlan::Pruned { n: N, seed: SEED };
    let path = tmp("pruned-damaged-meta.journal");
    let _ = std::fs::remove_file(&path);
    pruned_journaled(&plan, 4, &opts(&path, ResumeMode::Fresh)).unwrap();

    // Corrupt one byte of the class-table metadata payload. The line
    // checksum no longer verifies, the journal truncates there, and the
    // resume must refuse — naming the digest it expected — rather than
    // silently re-prune over unverifiable records.
    let content = std::fs::read_to_string(&path).unwrap();
    let damaged: Vec<String> = content
        .lines()
        .map(|l| {
            if let Some(rest) = l.strip_prefix("M|class-table|fnv=") {
                let flipped =
                    rest.replacen(&rest[..1], if &rest[..1] == "0" { "1" } else { "0" }, 1);
                format!("M|class-table|fnv={flipped}")
            } else {
                l.to_string()
            }
        })
        .collect();
    std::fs::write(&path, format!("{}\n", damaged.join("\n"))).unwrap();

    let err = pruned_journaled(&plan, 4, &opts(&path, ResumeMode::ResumeRequired)).unwrap_err();
    match err {
        JournalError::MetaMismatch {
            key,
            expected,
            found,
            ..
        } => {
            assert_eq!(key, "class-table");
            assert!(expected.starts_with("fnv="));
            assert_eq!(
                found, None,
                "a damaged metadata line must truncate, not parse"
            );
        }
        other => panic!("expected a class-table metadata mismatch, got {other}"),
    }
    let _ = std::fs::remove_file(&path);
}
