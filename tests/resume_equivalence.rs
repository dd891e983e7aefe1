//! Kill-and-resume equivalence for journaled campaigns.
//!
//! The durability contract of `vulnstack_core::journal`: a campaign
//! interrupted at an arbitrary point — mid-record, even — and resumed at
//! a *different* thread count produces records bit-identical to an
//! uninterrupted run. Verified here for both injection engines (gefin
//! AVF and llfi SVF) by truncating a completed journal back to a torn
//! prefix, resuming, and comparing records and journal contents; plus
//! the fingerprint refusal, panic-quarantine and pinned-identity
//! guarantees.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use vulnstack_core::journal::{fnv1a64, Journal};
use vulnstack_core::{
    Admission, Campaign, ClaimGate, FaultEffect, Fingerprint, JournalError, JournalOpts,
    ResumeMode, RunPolicy, StreamOpts,
};
use vulnstack_gefin::{
    avf_campaign, avf_campaign_models, avf_campaign_models_streamed, decode_record, draw_sites,
    encode_record, pvf_campaign_streamed, temporal_campaign_streamed, AvfStreamed, FuncPrepared,
    InjectionPlan, InjectionRecord, Prepared, PvfMode,
};
use vulnstack_isa::Isa;
use vulnstack_llfi::{svf_campaign, svf_campaign_streamed};
use vulnstack_microarch::ooo::{Fpm, HwStructure};
use vulnstack_microarch::{CoreModel, FaultModel};
use vulnstack_workloads::{Workload, WorkloadId};

const N: usize = 24;
const SEED: u64 = 11;
const STRUCTURE: HwStructure = HwStructure::RegisterFile;

fn prep() -> &'static Prepared {
    static PREP: OnceLock<Prepared> = OnceLock::new();
    PREP.get_or_init(|| {
        let w = WorkloadId::Crc32.build();
        Prepared::new(&w, CoreModel::A72).expect("prepare crc32/A72")
    })
}

fn crc32() -> &'static Workload {
    static W: OnceLock<Workload> = OnceLock::new();
    W.get_or_init(|| WorkloadId::Crc32.build())
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vulnstack-resume-{}", std::process::id()));
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

/// The journal's entry lines, sorted (workers append in completion
/// order, which varies with the thread count; the *set* of records must
/// not).
fn sorted_entries(path: &Path) -> Vec<String> {
    let content = std::fs::read_to_string(path).unwrap();
    let mut lines: Vec<String> = content.lines().skip(1).map(String::from).collect();
    lines.sort();
    lines
}

/// Truncates a completed journal back to its header plus `keep` entry
/// lines, then appends a torn half-record with no terminating newline —
/// the on-disk state a SIGKILL mid-append leaves behind.
fn interrupt_journal(full: &Path, target: &Path, keep: usize) {
    let content = std::fs::read_to_string(full).unwrap();
    let kept: Vec<&str> = content.lines().take(1 + keep).collect();
    let mut torn = format!("{}\n", kept.join("\n"));
    torn.push_str("R|999|half-written");
    std::fs::write(target, torn).unwrap();
}

/// Runs the journaled AVF engine over `plan` × `models` on the test
/// structure and returns the campaign together with every record it
/// folded — replayed and fresh, as the subscriber tee sees them — in
/// sampling order.
fn avf_journaled(
    plan: &InjectionPlan,
    models: &[FaultModel],
    threads: usize,
    journal: &JournalOpts<'_>,
) -> Result<(AvfStreamed, Vec<InjectionRecord>), JournalError> {
    let seen = Mutex::new(Vec::new());
    let tee = |i: u64, p: &str| {
        let rec = decode_record(p).expect("engine payloads decode");
        seen.lock().unwrap().push((i, rec));
    };
    let stream = StreamOpts {
        tee: Some(&tee),
        ..StreamOpts::from_env()
    };
    let (out, _) = avf_campaign_models_streamed(
        prep(),
        STRUCTURE,
        plan,
        models,
        threads,
        Some(journal),
        stream,
        None,
    )?;
    let mut seen = seen.into_inner().unwrap();
    seen.sort_by_key(|&(i, _)| i);
    Ok((out, seen.into_iter().map(|(_, r)| r).collect()))
}

const SAMPLED: InjectionPlan = InjectionPlan::Sampled { n: N, seed: SEED };

#[test]
fn gefin_kill_and_resume_is_bit_identical_across_thread_counts() {
    let baseline = avf_campaign(prep(), STRUCTURE, N, SEED, 4);

    // Uninterrupted journaled run: records match the plain campaign.
    let full = tmp("gefin-full.journal");
    let _ = std::fs::remove_file(&full);
    let (out, records) = avf_journaled(
        &SAMPLED,
        &[FaultModel::BitFlip],
        4,
        &opts(&full, ResumeMode::Fresh),
    )
    .unwrap();
    assert_eq!(records, baseline.records);
    assert_eq!(out.stats.executed, N);
    assert!(out.quarantined.is_empty());

    // Interrupt after 9 records and resume at several thread counts:
    // every resume must reconstruct the identical record vector AND the
    // identical journal contents.
    for threads in [2, 4] {
        let path = tmp(&format!("gefin-killed-t{threads}.journal"));
        interrupt_journal(&full, &path, 9);
        let (resumed, records) = avf_journaled(
            &SAMPLED,
            &[FaultModel::BitFlip],
            threads,
            &opts(&path, ResumeMode::ResumeRequired),
        )
        .unwrap();
        assert_eq!(
            records, baseline.records,
            "threads={threads}: resumed records must be bit-identical"
        );
        assert_eq!(resumed.stats.replayed, 9, "threads={threads}");
        assert_eq!(resumed.stats.executed, N - 9, "threads={threads}");
        assert!(
            resumed.stats.truncated_bytes > 0,
            "the torn tail must be detected and truncated"
        );
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
fn gefin_resume_refuses_a_mismatched_fingerprint() {
    let path = tmp("gefin-mismatch.journal");
    let _ = std::fs::remove_file(&path);
    let bit_flip = [FaultModel::BitFlip];
    avf_journaled(&SAMPLED, &bit_flip, 2, &opts(&path, ResumeMode::Fresh)).unwrap();
    // Same journal, different seed: a different campaign entirely.
    let reseeded = InjectionPlan::Sampled {
        n: N,
        seed: SEED + 1,
    };
    let err = avf_journaled(
        &reseeded,
        &bit_flip,
        2,
        &opts(&path, ResumeMode::ResumeRequired),
    )
    .unwrap_err();
    match err {
        JournalError::Mismatch {
            expected, found, ..
        } => {
            assert!(expected.contains(&format!("seed={}", SEED + 1)));
            assert!(found.contains(&format!("seed={SEED}")));
        }
        other => panic!("expected a fingerprint mismatch, got {other}"),
    }
    // Resume against a missing journal is refused too.
    let missing = tmp("gefin-missing.journal");
    let _ = std::fs::remove_file(&missing);
    assert!(matches!(
        avf_journaled(
            &SAMPLED,
            &bit_flip,
            2,
            &opts(&missing, ResumeMode::ResumeRequired)
        ),
        Err(JournalError::Missing(_))
    ));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn llfi_kill_and_resume_is_bit_identical_across_thread_counts() {
    let w = crc32();
    let n = 30;
    let baseline = svf_campaign(&w.module, &w.input, &w.expected_output, n, SEED, 4);
    let svf = |n: usize, threads: usize, journal: &JournalOpts<'_>| {
        svf_campaign_streamed(
            &w.module,
            &w.input,
            &w.expected_output,
            n,
            SEED,
            threads,
            Some(journal),
            StreamOpts::from_env(),
            None,
        )
    };

    let full = tmp("llfi-full.journal");
    let _ = std::fs::remove_file(&full);
    let out = svf(n, 4, &opts(&full, ResumeMode::Fresh)).unwrap();
    assert_eq!(out.tally, baseline);
    assert_eq!(out.stats.executed, n);

    for threads in [2, 4] {
        let path = tmp(&format!("llfi-killed-t{threads}.journal"));
        interrupt_journal(&full, &path, 11);
        let resumed = svf(n, threads, &opts(&path, ResumeMode::ResumeRequired)).unwrap();
        assert_eq!(resumed.tally, baseline, "threads={threads}");
        assert_eq!(resumed.stats.replayed, 11);
        assert_eq!(resumed.stats.executed, n - 11);
        assert!(resumed.stats.truncated_bytes > 0);
        assert_eq!(
            sorted_entries(&path),
            sorted_entries(&full),
            "threads={threads}: completed journals must hold the same records"
        );
        let _ = std::fs::remove_file(&path);
    }

    // A mismatched sample count is refused (records from a shorter
    // campaign must never seed a longer one).
    let err = svf(n + 1, 2, &opts(&full, ResumeMode::ResumeRequired)).unwrap_err();
    assert!(matches!(err, JournalError::Mismatch { .. }), "{err}");
    let _ = std::fs::remove_file(&full);
}

/// Journal codec for [`InjectionRecord`] mirroring the engine's own
/// (`cycle,bit,effect,fpm,fpm_cycle,model`): an independent spelling of
/// the on-disk record format that the engine codec must agree with.
fn encode(r: &InjectionRecord) -> String {
    format!(
        "{},{},{},{},{},{}",
        r.cycle,
        r.bit,
        r.effect.name(),
        r.fpm.map_or("-", Fpm::name),
        r.fpm_cycle
            .map_or_else(|| "-".to_string(), |c| c.to_string()),
        r.model.name(),
    )
}

fn decode(s: &str) -> Option<InjectionRecord> {
    let mut it = s.split(',');
    let cycle = it.next()?.parse().ok()?;
    let bit = it.next()?.parse().ok()?;
    let effect = FaultEffect::from_name(it.next()?)?;
    let fpm = match it.next()? {
        "-" => None,
        name => Some(Fpm::from_name(name)?),
    };
    let fpm_cycle = match it.next()? {
        "-" => None,
        c => Some(c.parse().ok()?),
    };
    let model = FaultModel::from_name(it.next()?)?;
    Some(InjectionRecord {
        cycle,
        bit,
        model,
        effect,
        fpm,
        fpm_cycle,
    })
}

/// Panic quarantine through the campaign driver every `_streamed`
/// engine runs on, with a journal: the engines expose no runner hook, so
/// the test drives [`Campaign`] directly over real gefin sites with one
/// deliberately poisoned injection.
#[test]
fn a_panicking_injection_is_quarantined_and_the_campaign_completes() {
    let prep = prep();
    let sites = draw_sites(prep, STRUCTURE, N, SEED);
    let order: Vec<usize> = (0..sites.len()).collect();
    let baseline = avf_campaign(prep, STRUCTURE, N, SEED, 4);
    let path = tmp("gefin-poison.journal");
    let _ = std::fs::remove_file(&path);
    let fingerprint = Fingerprint {
        engine: "test-poisoned-avf".to_string(),
        workload: "crc32".to_string(),
        config: "A72".to_string(),
        structure: STRUCTURE.name().to_string(),
        seed: SEED,
        samples: N as u64,
        params: String::new(),
        version: 1,
    };
    let journal = JournalOpts {
        policy: RunPolicy { max_retries: 1 },
        ..opts(&path, ResumeMode::Fresh)
    };
    let mut campaign = Campaign {
        items: &sites,
        order: &order,
        threads: 4,
        journal: Some(journal.bind(fingerprint, Vec::new())),
    };
    let poisoned = 3usize;
    let mut records: Vec<(u64, InjectionRecord)> = Vec::new();
    let out = campaign
        .run(
            StreamOpts::from_env(),
            |i, &(cycle, bit)| {
                // One deliberately poisoned injection among real runs.
                assert!(i != poisoned, "injector blew up on site {i}");
                vulnstack_gefin::avf::run_one(prep, STRUCTURE, cycle, bit)
            },
            encode_record,
            decode_record,
            |i, p| records.push((i, decode_record(p).unwrap())),
            None,
        )
        .unwrap();

    // The campaign completed: every healthy site carries its real
    // record, the poisoned one a quarantine marker.
    assert_eq!(out.quarantined.len(), 1);
    assert_eq!(out.quarantined[0].index, poisoned);
    assert_eq!(out.quarantined[0].attempts, 2, "1 try + 1 retry");
    assert!(out.quarantined[0].message.contains("blew up on site 3"));
    records.sort_by_key(|&(i, _)| i);
    let want: Vec<(u64, InjectionRecord)> = baseline
        .records
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != poisoned)
        .map(|(i, r)| (i as u64, *r))
        .collect();
    assert_eq!(records, want);

    // Resuming replays the quarantine durably instead of re-running the
    // poison site: zero executions, same outcome.
    if let Some(j) = campaign.journal.as_mut() {
        j.mode = ResumeMode::ResumeRequired;
    }
    let resumed = campaign
        .run(
            StreamOpts::from_env(),
            |_, &(cycle, bit)| vulnstack_gefin::avf::run_one(prep, STRUCTURE, cycle, bit),
            encode_record,
            decode_record,
            |_, _| {},
            None,
        )
        .unwrap();
    assert_eq!(resumed.stats.executed, 0);
    assert_eq!(resumed.stats.replayed, N);
    assert_eq!(resumed.stats.quarantined, 1);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn mixed_model_kill_and_resume_is_bit_identical() {
    let plan = InjectionPlan::Pruned { n: N, seed: SEED };
    let (baseline, _) = avf_campaign_models(prep(), STRUCTURE, &plan, &FaultModel::ALL, 4, None);
    // The drawn campaign really mixes models — otherwise this test
    // degenerates to the single-model one above.
    let models_seen: std::collections::BTreeSet<&str> =
        baseline.records.iter().map(|r| r.model.name()).collect();
    assert!(
        models_seen.len() > 1,
        "campaign must span several models, got {models_seen:?}"
    );

    let full = tmp("gefin-models-full.journal");
    let _ = std::fs::remove_file(&full);
    let (out, records) =
        avf_journaled(&plan, &FaultModel::ALL, 4, &opts(&full, ResumeMode::Fresh)).unwrap();
    assert_eq!(records, baseline.records);
    assert_eq!(out.stats.executed, N);

    // Kill after 7 settled sites, resume at a different thread count:
    // the record vector and the journal must come back bit-identical,
    // with every model decoded through the journal codec. The pruned
    // journal's first entry line is the class-table metadata record, so
    // keeping 8 lines keeps 7 site records.
    for threads in [2, 4] {
        let path = tmp(&format!("gefin-models-killed-t{threads}.journal"));
        interrupt_journal(&full, &path, 8);
        let (resumed, records) = avf_journaled(
            &plan,
            &FaultModel::ALL,
            threads,
            &opts(&path, ResumeMode::ResumeRequired),
        )
        .unwrap();
        assert_eq!(
            records, baseline.records,
            "threads={threads}: resumed mixed-model records must be bit-identical"
        );
        assert_eq!(resumed.stats.replayed, 7, "threads={threads}");
        assert_eq!(resumed.stats.executed, N - 7, "threads={threads}");
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
fn a_changed_model_set_is_refused_on_resume() {
    let plan = InjectionPlan::Pruned { n: N, seed: SEED };
    let path = tmp("gefin-models-mismatch.journal");
    let _ = std::fs::remove_file(&path);
    avf_journaled(&plan, &FaultModel::ALL, 2, &opts(&path, ResumeMode::Fresh)).unwrap();
    // Same plan, same seed, smaller model set: different site space —
    // the fingerprint must refuse, never silently mix campaigns.
    let err = avf_journaled(
        &plan,
        &[FaultModel::BitFlip, FaultModel::StuckAt],
        2,
        &opts(&path, ResumeMode::ResumeRequired),
    )
    .unwrap_err();
    match err {
        JournalError::Mismatch {
            expected, found, ..
        } => {
            assert!(expected.contains("models=bit-flip+stuck-at"), "{expected}");
            assert!(
                found.contains("models=bit-flip+byte-corrupt+instr-skip+stuck-at"),
                "{found}"
            );
        }
        other => panic!("expected a fingerprint mismatch, got {other}"),
    }
    let _ = std::fs::remove_file(&path);
}

/// Fuzzes the engine's journal codec over every model × effect × FPM
/// combination: encode/decode must round-trip exactly, and the mirror
/// codec in this file must agree byte-for-byte with the engine's.
#[test]
fn record_codec_round_trips_over_every_model() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0xC0DEC);
    for i in 0..4096usize {
        let model = FaultModel::ALL[i % FaultModel::ALL.len()];
        let effect = FaultEffect::ALL[rng.gen_range(0usize..4)];
        let fpm = match rng.gen_range(0usize..5) {
            0 => None,
            k => Some(Fpm::ALL[k - 1]),
        };
        let r = InjectionRecord {
            cycle: rng.gen_range(0u64..=u64::MAX - 1),
            bit: rng.gen_range(0u64..1 << 20),
            model,
            effect,
            fpm,
            fpm_cycle: fpm.map(|_| rng.gen_range(0u64..=u64::MAX - 1)),
        };
        let line = encode_record(&r);
        assert_eq!(decode_record(&line), Some(r), "engine codec: {line}");
        assert_eq!(encode(&r), line, "mirror codec must match the engine");
        assert_eq!(decode(&line), Some(r), "mirror decode: {line}");
    }
    // Truncated and over-long payloads are corruption, not records.
    let r = InjectionRecord {
        cycle: 5,
        bit: 6,
        model: FaultModel::StuckAt,
        effect: FaultEffect::Sdc,
        fpm: Some(Fpm::Wd),
        fpm_cycle: Some(9),
    };
    let line = encode_record(&r);
    assert_eq!(decode_record(line.rsplit_once(',').unwrap().0), None);
    assert_eq!(decode_record(&format!("{line},extra")), None);
    assert_eq!(decode_record("5,6,Sdc,WD,9,gamma-ray"), None);
}

/// A gate that admits nothing: the campaign opens its journal, writes
/// its identity, and stops before the first site.
struct Closed;

impl ClaimGate for Closed {
    fn admit(&self) -> Admission {
        Admission::Stop
    }

    fn release(&self) {}
}

/// The identity lines of a journal: its header and any metadata lines.
fn identity(path: &Path) -> Vec<String> {
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .filter(|l| l.starts_with("vulnstack-journal|") || l.starts_with("M|"))
        .map(String::from)
        .collect()
}

const CLASS_TABLE: &str = "M|class-table|fnv=603bf2c3ee8ae5e6|e85b2392330a2a8b";

/// Every engine writes the journal identity it wrote before the single
/// campaign driver existed, byte for byte: the header line (the
/// fingerprint) and, for pruned campaigns, the `class-table` metadata
/// line. Journals already on disk — CLI runs, daemon state directories
/// — stay resumable only while these lines hold. The pinned lines were
/// captured from the previous journal writer on these exact campaigns.
#[test]
fn journal_identities_are_pinned() {
    let closed = Closed;
    let stream = || StreamOpts {
        gate: Some(&closed),
        ..StreamOpts::from_env()
    };
    let w = crc32();
    let check = |case: &str, path: &Path, want: &[&str]| {
        assert_eq!(identity(path), want, "{case}: journal identity changed");
        let _ = std::fs::remove_file(path);
    };

    let avf_cases: [(&str, InjectionPlan, &[FaultModel], &[&str]); 3] = [
        (
            "gefin-avf sampled bit-flip",
            SAMPLED,
            &[FaultModel::BitFlip],
            &["vulnstack-journal|1|0b8ea63c3928e7de|engine=gefin-avf;workload=crc32;config=A72;structure=RF;seed=11;samples=24;params=golden_cycles=67174;output=a92687630c3c5f30;models=bit-flip;version=2|cb0a3ad3a5e07249"],
        ),
        (
            "gefin-avf pruned bit-flip",
            InjectionPlan::Pruned { n: N, seed: SEED },
            &[FaultModel::BitFlip],
            &["vulnstack-journal|1|ab495443040f225f|engine=gefin-avf;workload=crc32;config=A72;structure=RF;seed=11;samples=24;params=golden_cycles=67174;output=a92687630c3c5f30;models=bit-flip;plan=pruned;version=2|5039d574b8de1a54", CLASS_TABLE],
        ),
        (
            "gefin-avf exhaustive all models",
            InjectionPlan::Exhaustive { cycle: 1000 },
            &FaultModel::ALL,
            &["vulnstack-journal|1|d09f72a5364b94e8|engine=gefin-avf;workload=crc32;config=A72;structure=RF;seed=0;samples=17409;params=golden_cycles=67174;output=a92687630c3c5f30;models=bit-flip+byte-corrupt+instr-skip+stuck-at;plan=exhaustive@1000;version=2|be40c2900021bd1d", CLASS_TABLE],
        ),
    ];
    for (case, plan, models, want) in avf_cases {
        let path = tmp("identity-avf.journal");
        let j = opts(&path, ResumeMode::Fresh);
        let (out, _) = avf_campaign_models_streamed(
            prep(),
            STRUCTURE,
            &plan,
            models,
            2,
            Some(&j),
            stream(),
            None,
        )
        .unwrap();
        assert!(out.stats.stopped && out.stats.executed == 0, "{case}");
        check(case, &path, want);
    }

    let path = tmp("identity-pvf.journal");
    let fprep = FuncPrepared::new(w, Isa::Va64).unwrap();
    let j = opts(&path, ResumeMode::Fresh);
    pvf_campaign_streamed(&fprep, PvfMode::Wd, N, SEED, 2, Some(&j), stream(), None).unwrap();
    check(
        "gefin-pvf",
        &path,
        &["vulnstack-journal|1|19d7b0adc34f1865|engine=gefin-pvf;workload=crc32;config=va64;structure=-;seed=11;samples=24;params=mode=WD;golden_instrs=133052;output=a92687630c3c5f30;version=2|8bc3c32a093430f7"],
    );

    let sweeps: [(bool, &[&str]); 2] = [
        (false, &["vulnstack-journal|1|4f755ba5216c9d77|engine=gefin-sweep;workload=crc32;config=A72;structure=RF;seed=11;samples=12;params=windows=3;per_window=4;golden_cycles=67174;output=a92687630c3c5f30;version=2|c9b8d25f5083ed7b"]),
        (true, &["vulnstack-journal|1|697852e9925edf36|engine=gefin-sweep;workload=crc32;config=A72;structure=RF;seed=11;samples=12;params=windows=3;per_window=4;golden_cycles=67174;output=a92687630c3c5f30;plan=pruned;version=2|78283504ded3c92f", CLASS_TABLE]),
    ];
    for (pruned, want) in sweeps {
        let path = tmp("identity-sweep.journal");
        let j = opts(&path, ResumeMode::Fresh);
        temporal_campaign_streamed(
            prep(),
            STRUCTURE,
            3,
            4,
            SEED,
            2,
            pruned,
            Some(&j),
            stream(),
            None,
        )
        .unwrap();
        check(&format!("gefin-sweep pruned={pruned}"), &path, want);
    }

    let path = tmp("identity-svf.journal");
    let j = opts(&path, ResumeMode::Fresh);
    svf_campaign_streamed(
        &w.module,
        &w.input,
        &w.expected_output,
        30,
        SEED,
        2,
        Some(&j),
        stream(),
        None,
    )
    .unwrap();
    check(
        "llfi-svf",
        &path,
        &["vulnstack-journal|1|719d6357d244f04b|engine=llfi-svf;workload=crc32;config=vir;structure=-;seed=11;samples=30;params=injectable=71690;output=a92687630c3c5f30;models=bit-flip;version=2|e670be5610ff05c1"],
    );

    let path = tmp("identity-svf-ft.journal");
    let j = JournalOpts {
        workload: "crc32+ft",
        ..opts(&path, ResumeMode::Fresh)
    };
    vulnstack_ft::svf_campaign_streamed_hardened(
        &w.module,
        &w.input,
        &w.expected_output,
        30,
        SEED,
        2,
        Some(&j),
        stream(),
        None,
    )
    .unwrap();
    check(
        "svf+ft",
        &path,
        &["vulnstack-journal|1|aad043fa003642a9|engine=llfi-svf;workload=crc32+ft;config=vir;structure=-;seed=11;samples=30;params=injectable=150554;output=a92687630c3c5f30;models=bit-flip;version=2|18aed10a826cd2e6"],
    );
}

/// Kill-and-resume through the streaming sink: interrupting a streamed
/// journal mid-campaign (torn tail included) and resuming — through a
/// capacity-1 channel, maximum backpressure — reproduces the
/// uninterrupted journal exactly.
#[test]
fn streamed_kill_and_resume_reproduces_the_uninterrupted_journal() {
    let prep = prep();
    let plan = InjectionPlan::Sampled { n: N, seed: SEED };
    let baseline = avf_campaign(prep, STRUCTURE, N, SEED, 4);

    let full = tmp("streamed-full.journal");
    let _ = std::fs::remove_file(&full);
    let (out, _) = avf_campaign_models_streamed(
        prep,
        STRUCTURE,
        &plan,
        &[FaultModel::BitFlip],
        4,
        Some(&opts(&full, ResumeMode::Fresh)),
        StreamOpts::from_env(),
        None,
    )
    .unwrap();
    assert_eq!(out.tally, baseline.tally);

    for threads in [2, 4] {
        let path = tmp(&format!("streamed-killed-t{threads}.journal"));
        interrupt_journal(&full, &path, 9);
        let (resumed, _) = avf_campaign_models_streamed(
            prep,
            STRUCTURE,
            &plan,
            &[FaultModel::BitFlip],
            threads,
            Some(&opts(&path, ResumeMode::ResumeRequired)),
            StreamOpts {
                channel_cap: 1,
                spill: None,
                gate: None,
                tee: None,
            },
            None,
        )
        .unwrap();
        assert_eq!(resumed.stats.replayed, 9, "threads={threads}");
        assert_eq!(resumed.stats.executed, N - 9, "threads={threads}");
        assert!(resumed.stats.truncated_bytes > 0);
        assert_eq!(resumed.tally, baseline.tally, "threads={threads}");
        assert_eq!(
            sorted_entries(&path),
            sorted_entries(&full),
            "threads={threads}: the resumed journal must reproduce the uninterrupted one"
        );
        let _ = std::fs::remove_file(&path);
    }
    let _ = std::fs::remove_file(&full);

    // The software engine's streamed journal honours the same contract.
    let w = crc32();
    let n = 30;
    let full = tmp("streamed-llfi-full.journal");
    let _ = std::fs::remove_file(&full);
    let base = svf_campaign(&w.module, &w.input, &w.expected_output, n, SEED, 4);
    let out = svf_campaign_streamed(
        &w.module,
        &w.input,
        &w.expected_output,
        n,
        SEED,
        4,
        Some(&opts(&full, ResumeMode::Fresh)),
        StreamOpts::from_env(),
        None,
    )
    .unwrap();
    assert_eq!(out.tally, base);
    let path = tmp("streamed-llfi-killed.journal");
    interrupt_journal(&full, &path, 11);
    let resumed = svf_campaign_streamed(
        &w.module,
        &w.input,
        &w.expected_output,
        n,
        SEED,
        2,
        Some(&opts(&path, ResumeMode::ResumeRequired)),
        StreamOpts {
            channel_cap: 1,
            spill: None,
            gate: None,
            tee: None,
        },
        None,
    )
    .unwrap();
    assert_eq!(resumed.tally, base);
    assert_eq!(resumed.stats.replayed, 11);
    assert_eq!(resumed.stats.executed, n - 11);
    assert_eq!(sorted_entries(&path), sorted_entries(&full));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&full);
}

/// Group-commit durability regression: every appended record is written
/// through to the file immediately (one `write` per line — the
/// SIGKILL-survivable page-cache contract) even while the fsync is
/// batched behind a large flush interval, quarantines force the flush,
/// and a torn tail after un-fsynced appends still resumes cleanly.
#[test]
fn group_commit_batches_fsync_but_never_buffers_records() {
    let path = tmp("group-commit.journal");
    let _ = std::fs::remove_file(&path);
    let fp = Fingerprint {
        engine: "test-group-commit".to_string(),
        workload: "crc32".to_string(),
        config: "-".to_string(),
        structure: "-".to_string(),
        seed: 1,
        samples: 64,
        params: String::new(),
        version: 1,
    };
    let journal = Journal::create(&path, &fp).unwrap();
    // A flush interval far larger than the appends: none of the writes
    // below are fsync-driven.
    journal.set_flush_interval(1_000_000);
    for i in 0..10u64 {
        journal.append_done(i, &format!("payload-{i}")).unwrap();
        // The line must be on the file (page cache) immediately after
        // the append returns — records are never buffered in the writer.
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            content.lines().count(),
            2 + i as usize,
            "append {i} must be written through"
        );
        assert!(
            content.contains(&format!("R|{i}|payload-{i}")),
            "record {i} must be on the file before any fsync"
        );
    }
    journal.append_quarantined(10, 2, "poison").unwrap();
    journal.flush().unwrap();
    drop(journal);

    // A torn half-record after the group-committed lines truncates away
    // on resume without touching the durable prefix.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(b"R|99|torn-half");
    std::fs::write(&path, &bytes).unwrap();
    let (_, replay) = Journal::resume(&path, &fp).unwrap();
    assert_eq!(replay.entries.len(), 11);
    assert_eq!(replay.truncated_bytes, b"R|99|torn-half".len() as u64);
    for (i, e) in replay.entries.iter().take(10).enumerate() {
        assert_eq!(e.index, i as u64);
    }
    let _ = std::fs::remove_file(&path);
}

/// The journal header binds the campaign to the golden run itself, not
/// just its labels: fingerprints with identical labels but different
/// sample counts hash differently.
#[test]
fn fingerprint_digest_tracks_every_field() {
    let base = Fingerprint {
        engine: "e".into(),
        workload: "w".into(),
        config: "c".into(),
        structure: "s".into(),
        seed: 1,
        samples: 2,
        params: "p".into(),
        version: 3,
    };
    let variants = [
        Fingerprint {
            engine: "e2".into(),
            ..base.clone()
        },
        Fingerprint {
            workload: "w2".into(),
            ..base.clone()
        },
        Fingerprint {
            config: "c2".into(),
            ..base.clone()
        },
        Fingerprint {
            structure: "s2".into(),
            ..base.clone()
        },
        Fingerprint {
            seed: 9,
            ..base.clone()
        },
        Fingerprint {
            samples: 9,
            ..base.clone()
        },
        Fingerprint {
            params: "p2".into(),
            ..base.clone()
        },
        Fingerprint {
            version: 9,
            ..base.clone()
        },
    ];
    for v in &variants {
        assert_ne!(v.canonical(), base.canonical());
        assert_ne!(v.digest(), base.digest());
    }
    assert_eq!(base.digest(), fnv1a64(base.canonical().as_bytes()));
}
