//! Streaming-equivalence: the bounded-memory sink pipeline must be an
//! *observationally invisible* refactor. For every engine family the
//! streamed campaign's tallies — and, via the spill file, its full
//! record stream — must be bit-identical to the in-memory reference
//! campaign that collects every record, through the tightest possible
//! channel (capacity 1, maximum backpressure), through panics
//! mid-stream (journaled or not), under admission-gate stops, and under
//! memory-quota shedding (which may drop telemetry spans but never
//! records).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use vulnstack_core::trace::CampaignMetrics;
use vulnstack_core::{
    Admission, Campaign, ClaimGate, Fingerprint, JournalOpts, MemQuota, ResumeMode, RunPolicy,
    StreamOpts,
};
use vulnstack_gefin::{
    avf_campaign, avf_campaign_models, avf_campaign_models_streamed, draw_sites, encode_record,
    per_model_tallies, pvf_campaign, pvf_campaign_streamed, temporal_campaign,
    temporal_campaign_streamed, FuncPrepared, InjectionPlan, Prepared, PvfMode,
};
use vulnstack_isa::Isa;
use vulnstack_llfi::{svf_campaign, svf_campaign_streamed};
use vulnstack_microarch::ooo::HwStructure;
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
    let dir = std::env::temp_dir().join(format!("vulnstack-streameq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Streaming options pinned to an explicit channel bound plus a spill
/// file, independent of the environment.
fn spill_opts(cap: usize, spill: &Path) -> StreamOpts<'_> {
    StreamOpts {
        channel_cap: cap,
        spill: Some(spill),
        gate: None,
        tee: None,
    }
}

/// Reads a spill file back and orders its payloads by site index — the
/// settle order varies with threading, the indexed record set must not.
fn spilled_by_index(records: &vulnstack_core::RecordHandle) -> Vec<(u64, String)> {
    let mut got = records.payloads().expect("readable spill");
    got.sort();
    got
}

#[test]
fn streamed_avf_records_are_bit_identical_to_legacy_collect() {
    let prep = prep();
    let baseline = avf_campaign(prep, STRUCTURE, N, SEED, 4);
    let plan = InjectionPlan::Sampled { n: N, seed: SEED };
    // Channel capacities 1 (every push blocks: maximum backpressure) and
    // a comfortable bound must both reproduce the legacy records.
    for cap in [1usize, 64] {
        let spill = tmp(&format!("avf-cap{cap}.records"));
        let (out, stats) = avf_campaign_models_streamed(
            prep,
            STRUCTURE,
            &plan,
            &[FaultModel::BitFlip],
            4,
            None,
            spill_opts(cap, &spill),
            None,
        )
        .unwrap();
        assert!(stats.is_none(), "cap={cap}: sampled plans do not prune");
        assert_eq!(out.tally, baseline.tally, "cap={cap}");
        assert_eq!(out.stats.executed, N, "cap={cap}");
        let want: Vec<(u64, String)> = baseline
            .records
            .iter()
            .enumerate()
            .map(|(i, r)| (i as u64, encode_record(r)))
            .collect();
        let handle = out.records.expect("spill requested");
        assert_eq!(handle.count(), N as u64);
        assert_eq!(
            spilled_by_index(&handle),
            want,
            "cap={cap}: spilled records must be bit-identical to the legacy vector"
        );
        // The incremental per-model accumulation must agree with the
        // legacy whole-vector pass.
        assert_eq!(out.per_model, per_model_tallies(&baseline.records));
        let _ = std::fs::remove_file(&spill);
    }
}

#[test]
fn streamed_exhaustive_model_sweep_matches_the_models_engine() {
    let prep = prep();
    let cycle = prep.golden.cycles / 2;
    // Byte-corrupt plus the single-site instr-skip: the full (site,
    // model) product small enough for a debug-build test.
    let models = [FaultModel::ByteCorrupt, FaultModel::InstrSkip];
    let plan = InjectionPlan::Exhaustive { cycle };
    let (baseline, base_stats) = avf_campaign_models(prep, STRUCTURE, &plan, &models, 4, None);
    let spill = tmp("avf-exhaustive.records");
    let (out, stats) = avf_campaign_models_streamed(
        prep,
        STRUCTURE,
        &plan,
        &models,
        4,
        None,
        spill_opts(8, &spill),
        None,
    )
    .unwrap();
    let stats = stats.expect("exhaustive plans execute through the pruner");
    let base_stats = base_stats.expect("legacy exhaustive prunes too");
    assert_eq!(stats.sites, base_stats.sites);
    assert_eq!(stats.dead_masked, base_stats.dead_masked);
    assert_eq!(out.tally, baseline.tally);
    assert_eq!(out.per_model, per_model_tallies(&baseline.records));
    let want: Vec<(u64, String)> = baseline
        .records
        .iter()
        .enumerate()
        .map(|(i, r)| (i as u64, encode_record(r)))
        .collect();
    let handle = out.records.expect("spill requested");
    assert_eq!(
        spilled_by_index(&handle),
        want,
        "exhaustive streamed records must be bit-identical"
    );
    let _ = std::fs::remove_file(&spill);
}

#[test]
fn streamed_temporal_sweep_matches_the_legacy_profile() {
    let prep = prep();
    let (windows, per_window) = (4usize, 8usize);
    let baseline = temporal_campaign(prep, STRUCTURE, windows, per_window, SEED, 4);
    for pruned in [false, true] {
        let (out, stats) = temporal_campaign_streamed(
            prep,
            STRUCTURE,
            windows,
            per_window,
            SEED,
            4,
            pruned,
            None,
            StreamOpts::from_env(),
            None,
        )
        .unwrap();
        assert_eq!(out.profile.tallies, baseline.tallies, "pruned={pruned}");
        assert_eq!(out.profile.fpms, baseline.fpms, "pruned={pruned}");
        assert_eq!(out.profile.bounds, baseline.bounds, "pruned={pruned}");
        assert_eq!(stats.is_some(), pruned);
        assert_eq!(out.stats.executed, windows * per_window);
    }
}

#[test]
fn streamed_pvf_and_svf_match_their_legacy_campaigns() {
    let w = crc32();
    let fprep = FuncPrepared::new(w, Isa::Va64).expect("prepare crc32/va64");
    for mode in [PvfMode::Wd, PvfMode::Woi, PvfMode::Wi] {
        let baseline = pvf_campaign(&fprep, mode, N, SEED, 4);
        let out =
            pvf_campaign_streamed(&fprep, mode, N, SEED, 4, None, StreamOpts::from_env(), None)
                .unwrap();
        assert_eq!(out.tally, baseline, "mode={mode:?}");
        assert_eq!(out.stats.executed, N);
    }
    let baseline = svf_campaign(&w.module, &w.input, &w.expected_output, N, SEED, 4);
    // Capacity 1 exercises backpressure on the software engine too.
    let spill = tmp("svf.records");
    let out = svf_campaign_streamed(
        &w.module,
        &w.input,
        &w.expected_output,
        N,
        SEED,
        4,
        None,
        spill_opts(1, &spill),
        None,
    )
    .unwrap();
    assert_eq!(out.tally, baseline);
    let handle = out.records.expect("spill requested");
    assert_eq!(handle.count(), N as u64);
    // Every spilled payload is a decodable effect name.
    handle
        .for_each_payload(|_, p| {
            assert!(
                vulnstack_core::FaultEffect::from_name(p).is_some(),
                "undecodable spill payload {p:?}"
            );
        })
        .unwrap();
    let _ = std::fs::remove_file(&spill);
}

/// A worker panic mid-stream degrades to a durable quarantine record —
/// the stream keeps flowing, every healthy site still lands, and a
/// resume replays the quarantine instead of re-running the poison.
#[test]
fn a_panic_mid_stream_quarantines_without_stalling_the_pipeline() {
    let prep = prep();
    let sites = draw_sites(prep, STRUCTURE, N, SEED);
    let order: Vec<usize> = (0..sites.len()).collect();
    let baseline = avf_campaign(prep, STRUCTURE, N, SEED, 4);
    let path = tmp("stream-poison.journal");
    let _ = std::fs::remove_file(&path);
    let fingerprint = Fingerprint {
        engine: "test-streamed-poison".to_string(),
        workload: "crc32".to_string(),
        config: "A72".to_string(),
        structure: STRUCTURE.name().to_string(),
        seed: SEED,
        samples: N as u64,
        params: String::new(),
        version: 1,
    };
    let journal = JournalOpts {
        path: &path,
        mode: ResumeMode::Fresh,
        policy: RunPolicy { max_retries: 1 },
        workload: "crc32",
    };
    let mut campaign = Campaign {
        items: &sites,
        order: &order,
        threads: 4,
        journal: Some(journal.bind(fingerprint, Vec::new())),
    };
    let poisoned = 3usize;
    let mut folded = 0usize;
    let cap1 = StreamOpts {
        channel_cap: 1,
        spill: None,
        gate: None,
        tee: None,
    };
    // Capacity 1: the panic happens while other workers are blocked on
    // the full channel, the worst interleaving for a stalled sink.
    let out = campaign
        .run(
            cap1,
            |i, &(cycle, bit)| {
                assert!(i != poisoned, "injector blew up on site {i}");
                vulnstack_gefin::avf::run_one(prep, STRUCTURE, cycle, bit)
            },
            encode_record,
            vulnstack_gefin::decode_record,
            |_, _| folded += 1,
            None,
        )
        .unwrap();
    assert_eq!(folded, N - 1, "every healthy record reaches the fold");
    assert_eq!(out.quarantined.len(), 1);
    assert_eq!(out.quarantined[0].index, poisoned);
    assert_eq!(out.quarantined[0].attempts, 2, "1 try + 1 retry");
    assert!(out.quarantined[0].message.contains("blew up on site 3"));
    assert_eq!(out.stats.executed, N);

    // Resume: the quarantine replays durably, the healthy records fold
    // again bit-identically (checked against the in-memory campaign).
    if let Some(j) = campaign.journal.as_mut() {
        j.mode = ResumeMode::ResumeRequired;
    }
    let mut replayed: Vec<(u64, String)> = Vec::new();
    let resumed = campaign
        .run(
            cap1,
            |_, &(cycle, bit)| vulnstack_gefin::avf::run_one(prep, STRUCTURE, cycle, bit),
            encode_record,
            vulnstack_gefin::decode_record,
            |i, p| replayed.push((i, p.to_string())),
            None,
        )
        .unwrap();
    assert_eq!(resumed.stats.executed, 0);
    assert_eq!(resumed.stats.replayed, N);
    assert_eq!(resumed.stats.quarantined, 1);
    replayed.sort();
    assert_eq!(replayed, encoded_without(&baseline.records, poisoned));
    let _ = std::fs::remove_file(&path);
}

/// `(site index, encoded record)` pairs of `records`, minus one site.
fn encoded_without(
    records: &[vulnstack_gefin::InjectionRecord],
    skip: usize,
) -> Vec<(u64, String)> {
    records
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != skip)
        .map(|(i, r)| (i as u64, encode_record(r)))
        .collect()
}

/// Without a journal the campaign has the same fault domain: a poisoned
/// site is quarantined after the default retries instead of aborting the
/// process, and every other record is bit-identical.
#[test]
fn an_unjournaled_panic_is_quarantined_and_spares_every_other_record() {
    let prep = prep();
    let sites = draw_sites(prep, STRUCTURE, N, SEED);
    let order: Vec<usize> = (0..sites.len()).collect();
    let baseline = avf_campaign(prep, STRUCTURE, N, SEED, 4);
    let spill = tmp("unjournaled-poison.records");
    let poisoned = 5usize;
    let attempts = AtomicUsize::new(0);
    let out = Campaign {
        items: &sites,
        order: &order,
        threads: 4,
        journal: None,
    }
    .run(
        spill_opts(1, &spill),
        |i, &(cycle, bit)| {
            if i == poisoned {
                attempts.fetch_add(1, Ordering::Relaxed);
                panic!("injector blew up on site {i}");
            }
            vulnstack_gefin::avf::run_one(prep, STRUCTURE, cycle, bit)
        },
        encode_record,
        vulnstack_gefin::decode_record,
        |_, _| {},
        None,
    )
    .unwrap();
    let tries = RunPolicy::default().max_retries + 1;
    assert_eq!(attempts.load(Ordering::Relaxed), tries as usize);
    assert_eq!(out.quarantined.len(), 1);
    assert_eq!(out.quarantined[0].index, poisoned);
    assert_eq!(out.quarantined[0].attempts, tries);
    assert_eq!(out.stats.executed, N);
    assert_eq!(out.stats.quarantined, 1);
    let handle = out.records.expect("spill requested");
    assert_eq!(
        spilled_by_index(&handle),
        encoded_without(&baseline.records, poisoned),
        "every healthy record must be bit-identical"
    );
    let _ = std::fs::remove_file(&spill);
}

/// Admits the first `k` claims, then stops: a cancelled campaign.
struct StopAfter(AtomicUsize);

impl ClaimGate for StopAfter {
    fn admit(&self) -> Admission {
        match self
            .0
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |k| k.checked_sub(1))
        {
            Ok(_) => Admission::Run,
            Err(_) => Admission::Stop,
        }
    }

    fn release(&self) {}
}

/// The admission gate governs unjournaled campaigns too: cancellation
/// and fair-share admission reach every run, not only journaled ones.
#[test]
fn an_unjournaled_campaign_honours_the_admission_gate() {
    let prep = prep();
    let k = 5usize;
    for threads in [1, 4] {
        let gate = StopAfter(AtomicUsize::new(k));
        let spill = tmp(&format!("gated-t{threads}.records"));
        let metrics = CampaignMetrics::new("gated");
        let (out, _) = avf_campaign_models_streamed(
            prep,
            STRUCTURE,
            &InjectionPlan::Sampled { n: N, seed: SEED },
            &[FaultModel::BitFlip],
            threads,
            None,
            StreamOpts {
                gate: Some(&gate),
                ..spill_opts(4, &spill)
            },
            Some(&metrics),
        )
        .unwrap();
        assert!(
            out.stats.stopped,
            "threads={threads}: the stop must be reported"
        );
        assert_eq!(out.stats.executed, k, "threads={threads}");
        assert_eq!(metrics.report().sites, k as u64, "threads={threads}");
        assert_eq!(out.tally.total(), k as u64, "threads={threads}");
        assert_eq!(out.records.expect("spill").count(), k as u64);
        assert!(
            out.quarantined.is_empty(),
            "unadmitted sites are not failures"
        );
        let _ = std::fs::remove_file(&spill);
    }
}

/// Memory-quota pressure sheds telemetry spans (counted degradation),
/// never records: a streamed campaign under a starved quota produces
/// bit-identical results.
#[test]
fn quota_shedding_degrades_telemetry_but_never_records() {
    let prep = prep();
    let baseline = avf_campaign(prep, STRUCTURE, N, SEED, 4);
    // A quota that fits almost nothing: spans must shed immediately.
    let quota = MemQuota::with_limit(64);
    let metrics = CampaignMetrics::with_quota("quota-shed", &quota);
    let plan = InjectionPlan::Sampled { n: N, seed: SEED };
    let spill = tmp("quota-shed.records");
    let (out, _) = avf_campaign_models_streamed(
        prep,
        STRUCTURE,
        &plan,
        &[FaultModel::BitFlip],
        4,
        None,
        spill_opts(4, &spill),
        Some(&metrics),
    )
    .unwrap();
    assert_eq!(out.tally, baseline.tally, "shedding must not touch records");
    let want: Vec<(u64, String)> = baseline
        .records
        .iter()
        .enumerate()
        .map(|(i, r)| (i as u64, encode_record(r)))
        .collect();
    assert_eq!(spilled_by_index(&out.records.expect("spill")), want);
    let report = metrics.report();
    assert_eq!(report.sites, N as u64, "site counts stay exact");
    assert!(report.spans_shed > 0, "a 64 B quota must shed spans");
    assert!(quota.shedding_started());
    let shed = quota.shed_report();
    assert!(shed.events > 0 && shed.bytes > 0, "{shed:?}");
    let _ = std::fs::remove_file(&spill);
}
