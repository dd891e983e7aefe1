//! The in-process AVF workloads: campaigns run by this process through
//! the streaming entry point, with no journal.

use std::time::{Duration, Instant};

use vulnstack_core::trace::{CampaignMetrics, MetricsReport};
use vulnstack_gefin::prune::PruneStats;
use vulnstack_gefin::{InjectionPlan, Prepared};
use vulnstack_microarch::ooo::HwStructure;
use vulnstack_microarch::{CoreModel, FaultModel};
use vulnstack_workloads::{Workload, WorkloadId};

use crate::campaign::{self, Outcome};
use crate::layers;
use crate::openloop;
use crate::report::{self, LayerData};
use crate::serve::{self, Arrival, Daemon, Load, Spec};
use crate::util::{derive_seed, digest, median, ms, percentile, proc_mib, ratio, ScratchDir};
use crate::{RunOut, THREADS};

/// Set-up repetitions per run; `setup_s` is their median. Single set-ups
/// within one run of `avf-a9-pruned` took 0.46–0.79 s on a 2-vCPU VM.
const SETUP_REPS: usize = 9;

/// Site sets per in-process workload; a run cycles through them, one per
/// round. A few long-running faulty runs dominate a round's time, so
/// with a single 2 000-site set a round of `avf-a9-pruned` took
/// 7.3–10.1 s depending on the seed; the sets spread each run over four
/// times as many sites.
const SITE_SETS: usize = 4;

/// One in-process workload: `per_structure` campaigns of `n` sites for
/// every (pair, structure), sampled or pruned, make one site set.
#[derive(Debug)]
pub struct Def {
    pub name: &'static str,
    pub pairs: &'static [(WorkloadId, CoreModel)],
    pub structures: &'static [HwStructure],
    pub pruned: bool,
    pub per_structure: usize,
    pub n: usize,
}

pub const AVF_A72_SAMPLED: Def = Def {
    name: "avf-a72-sampled",
    pairs: &[
        (WorkloadId::Qsort, CoreModel::A72),
        (WorkloadId::Crc32, CoreModel::A72),
    ],
    structures: &[HwStructure::L1d, HwStructure::L2, HwStructure::Lsq],
    pruned: false,
    per_structure: 2,
    n: 250,
};

pub const AVF_A9_PRUNED: Def = Def {
    name: "avf-a9-pruned",
    pairs: &[(WorkloadId::Sha, CoreModel::A9)],
    structures: &[HwStructure::RegisterFile, HwStructure::Lsq],
    pruned: true,
    per_structure: 4,
    n: 250,
};

/// One campaign of a round.
#[derive(Debug, Clone)]
pub struct CampaignDef {
    pub pair: usize,
    pub structure: HwStructure,
    pub plan: InjectionPlan,
    /// `workload/model/structure#k`, with `@set` after it for every
    /// site set but the first.
    pub key: String,
}

pub fn pair_key(pair: (WorkloadId, CoreModel)) -> String {
    format!("{}/{}", pair.0.name(), pair.1.name())
}

/// The campaigns of site set `set`; each draws its sites from a seed
/// derived from the workload seed and its key.
fn campaigns(def: &Def, seed: u64, set: usize) -> Vec<CampaignDef> {
    let mut out = Vec::new();
    for (p, &pair) in def.pairs.iter().enumerate() {
        for &structure in def.structures {
            for k in 0..def.per_structure {
                let mut key = format!("{}/{}#{k}", pair_key(pair), structure.name());
                if set > 0 {
                    key.push_str(&format!("@{set}"));
                }
                out.push(CampaignDef {
                    pair: p,
                    structure,
                    plan: campaign::plan(def.pruned, def.n, derive_seed(seed, &key)),
                    key,
                });
            }
        }
    }
    out
}

/// Prepared pairs plus the time set-up took: `Prepared::new` for every
/// pair, and `Pruner::new` for every (pair, structure) when the plan is
/// pruned.
fn setup(def: &Def, workloads: &[Workload]) -> Result<(Vec<Prepared>, Duration), String> {
    let t = Instant::now();
    let preps = workloads
        .iter()
        .zip(def.pairs)
        .map(|(w, &(_, model))| campaign::prepare(w, model))
        .collect::<Result<Vec<_>, _>>()?;
    if def.pruned {
        for prep in &preps {
            for &s in def.structures {
                campaign::pruner_setup(prep, s);
            }
        }
    }
    Ok((preps, t.elapsed()))
}

fn build_workloads(def: &Def) -> Vec<Workload> {
    def.pairs.iter().map(|&(id, _)| id.build()).collect()
}

/// One round: every campaign of the workload once, in order.
fn round(
    preps: &[Prepared],
    defs: &[CampaignDef],
    dir: &ScratchDir,
    metered: bool,
) -> Result<Vec<(Outcome, Option<MetricsReport>)>, String> {
    defs.iter()
        .map(|c| {
            let m = metered.then(|| CampaignMetrics::new(&c.key));
            let o = campaign::run(
                &preps[c.pair],
                c.structure,
                &c.plan,
                &[FaultModel::BitFlip],
                THREADS,
                dir.path(),
                m.as_ref(),
            )?;
            if o.records.len() != c.plan_sites() {
                return Err(format!(
                    "{}: {} records for {} sites",
                    c.key,
                    o.records.len(),
                    c.plan_sites()
                ));
            }
            Ok((o, m.map(|m| m.report())))
        })
        .collect()
}

impl CampaignDef {
    fn plan_sites(&self) -> usize {
        match self.plan {
            InjectionPlan::Sampled { n, .. } | InjectionPlan::Pruned { n, .. } => n,
            InjectionPlan::Exhaustive { .. } => unreachable!("workloads use sampling plans"),
        }
    }
}

/// The exact counters of one round: record digests and prune counts.
fn exact(
    defs: &[CampaignDef],
    rounds: &[(Outcome, Option<MetricsReport>)],
) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (c, (o, _)) in defs.iter().zip(rounds) {
        let d = digest(o.records.iter().map(|r| r.1.as_str()));
        out.push((format!("digest/{}", c.key), format!("{d:016x}")));
        if let Some(p) = &o.prune {
            out.push((format!("prune/{}", c.key), prune_counts(p)));
        }
    }
    out
}

/// The prune counts that are a pure function of the site set. Pilot
/// runs, memo hits and the early-termination counts are left out: two
/// workers that reach one equivalence class together both run its
/// pilot, so how those split between runs depends on timing.
fn prune_counts(p: &PruneStats) -> String {
    format!(
        "sites={} dead={} static_dead={} equiv={} singletons={}",
        p.sites,
        p.dead_masked,
        p.static_dead,
        p.pilot_runs + p.memo_hits,
        p.singleton_runs
    )
}

/// Names the exact counters in which `got` differs from `want`.
fn differing(want: &[(String, String)], got: &[(String, String)]) -> String {
    want.iter()
        .zip(got)
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("{} {} != {}", w.0, g.1, w.1))
        .collect::<Vec<_>>()
        .join("; ")
}

fn golden_counters(def: &Def, preps: &[Prepared]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (&pair, prep) in def.pairs.iter().zip(preps) {
        let k = pair_key(pair);
        out.push((format!("golden_cycles/{k}"), prep.golden.cycles.to_string()));
        out.push((
            format!("snapshot.count/{k}"),
            prep.checkpoints.len().to_string(),
        ));
    }
    out
}

/// The end-to-end run: whole rounds until `seconds` have passed, round
/// `r` running site set `r % SITE_SETS`, and at least `SITE_SETS + 1`
/// rounds, so that every set runs and one repeats. The set-up is
/// repeated `SETUP_REPS` times, before each of the first rounds (and at
/// the end, for rounds there was no time for), so that its samples are
/// spread over the run; each new set-up replaces the previous one.
/// Every round must repeat the exact counters of its set's first round.
///
/// Campaign times are summarised per campaign first (its median, or
/// p90, over the rounds that ran its set) and then averaged over the
/// campaigns of every set: the campaigns differ in kind, and a
/// percentile across them would jump between kinds with the seed. The
/// first-record and read-back times, which are alike across campaigns,
/// are medians over every campaign of every round.
pub fn run(def: &Def, seed: u64, seconds: u64) -> Result<RunOut, String> {
    let workloads = build_workloads(def);
    let sets: Vec<Vec<CampaignDef>> = (0..SITE_SETS).map(|s| campaigns(def, seed, s)).collect();
    let dir = ScratchDir::new(def.name)?;
    let mut setups = Vec::new();
    let mut preps = Vec::new();
    let mut references: Vec<Vec<(String, String)>> = Vec::new();
    let mut out = RunOut::default();
    // Per set and campaign, over the rounds that ran the set.
    let mut walls: Vec<Vec<Vec<f64>>> = sets.iter().map(|d| vec![Vec::new(); d.len()]).collect();
    // Over every campaign of every round.
    let mut firsts = Vec::new();
    let mut reads = Vec::new();
    let t0 = Instant::now();
    let mut rounds = 0usize;
    let mut set_up = |preps: &mut Vec<Prepared>| -> Result<(), String> {
        drop(std::mem::take(preps));
        let (p, took) = setup(def, &workloads)?;
        setups.push(took.as_secs_f64());
        *preps = p;
        Ok(())
    };
    while rounds <= SITE_SETS || t0.elapsed().as_secs_f64() < seconds as f64 {
        if rounds < SETUP_REPS {
            set_up(&mut preps)?;
        }
        let set = rounds % SITE_SETS;
        let r = round(&preps, &sets[set], &dir, false)?;
        let got = exact(&sets[set], &r);
        if rounds < SITE_SETS {
            references.push(got);
        } else if got != references[set] {
            out.mismatches.push(format!(
                "round {rounds} differs from the first round of site set {set}: {}",
                differing(&references[set], &got)
            ));
        }
        for (k, (o, _)) in r.iter().enumerate() {
            walls[set][k].push(o.wall.as_secs_f64());
            firsts.push(ms(o.first_record));
            reads.push(ms(o.read));
            out.attempted += o.records.len() as u64;
            out.failed += o.quarantined as u64;
        }
        rounds += 1;
    }
    for _ in rounds..SETUP_REPS {
        set_up(&mut preps)?;
    }
    let keys: Vec<&str> = sets.iter().flatten().map(|c| c.key.as_str()).collect();
    let walls: Vec<&Vec<f64>> = walls.iter().flatten().collect();
    let medians: Vec<f64> = walls.iter().map(|w| median(w)).collect();
    let p90s: Vec<f64> = walls.iter().map(|w| percentile(w, 0.9)).collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;

    out.notes.push(format!(
        "threads={THREADS} rounds={rounds} site-sets={} campaigns/round={} sites/round={} \
         distinct sites={} set-ups={} first-record and read samples={}",
        SITE_SETS,
        sets[0].len(),
        sets[0].len() * def.n,
        keys.len() * def.n,
        setups.len(),
        firsts.len()
    ));
    out.notes.push(format!(
        "median campaign wall (s): {}",
        keys.iter()
            .zip(&medians)
            .map(|(k, w)| format!("{k}={w:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out.exact = references.concat();
    out.exact.extend(golden_counters(def, &preps));
    let m = &mut out.metrics;
    m.put(
        "inj_per_s",
        (keys.len() * def.n) as f64 / medians.iter().sum::<f64>(),
        "1/s",
    );
    m.put("setup_s", median(&setups), "s");
    m.put("peak_rss_mib", proc_mib(None, "VmHWM")?, "MiB");
    m.put(
        "ok_frac",
        1.0 - ratio(out.failed as f64, out.attempted as f64),
        "fraction",
    );
    m.put("campaign_p50_s", mean(&medians), "s");
    m.put("campaign_p90_s", mean(&p90s), "s");
    m.put("first_record_p50_ms", median(&firsts), "ms");
    m.put("read_p50_ms", median(&reads), "ms");
    Ok(out)
}

/// The traced run, on the first site set: per-layer preparation
/// timings, a metered round against an untraced one, the per-layer
/// replica of every site (which must reproduce every record), the
/// journal driven over the campaigns' own records, a short daemon
/// session over the same pairs and the baseline row for the first pair.
pub fn traced(def: &Def, seed: u64, exe: &std::path::Path) -> Result<RunOut, String> {
    let workloads = build_workloads(def);
    let defs = campaigns(def, seed, 0);
    let dir = ScratchDir::new(def.name)?;
    let mut data = LayerData::default();
    for (w, &(_, model)) in workloads.iter().zip(def.pairs) {
        data.prep.push(layers::prep_layers(w, model)?);
    }
    let t = Instant::now();
    let preps = workloads
        .iter()
        .zip(def.pairs)
        .map(|(w, &(_, model))| campaign::prepare(w, model))
        .collect::<Result<Vec<_>, _>>()?;
    let prepare_s = t.elapsed().as_secs_f64() / preps.len() as f64;
    for prep in &preps {
        for &s in def.structures {
            data.prune_setup.push(campaign::pruner_setup(prep, s));
        }
    }

    let mut out = RunOut::default();
    let plain = round(&preps, &defs, &dir, false)?;
    let metered = round(&preps, &defs, &dir, true)?;
    let reference = exact(&defs, &plain);
    let got = exact(&defs, &metered);
    if got != reference {
        out.mismatches.push(format!(
            "the metered round differs from the untraced one: {}",
            differing(&reference, &got)
        ));
    }
    let wall = |r: &[(Outcome, Option<MetricsReport>)]| {
        r.iter().map(|(o, _)| o.wall.as_secs_f64()).sum::<f64>()
    };
    data.overhead = wall(&metered) / wall(&plain) - 1.0;
    for (o, rep) in &metered {
        data.sched
            .push(rep.clone().expect("metered round has reports"));
        data.sites_served += o.records.len() as u64;
        out.failed += o.quarantined as u64;
        if let Some(p) = &o.prune {
            data.add_prune(p);
        }
    }

    // Per-layer replica: every site of every campaign, unpruned.
    let mut replica_counts = (0u64, 0u64, 0u64);
    for (c, (o, _)) in defs.iter().zip(&metered) {
        let prep = &preps[c.pair];
        let sites = campaign::sites(prep, c.structure, &c.plan, &[FaultModel::BitFlip]);
        let replayed = layers::replay_sites(prep, c.structure, &sites, THREADS);
        for (i, ((rec, t), (index, payload))) in replayed.iter().zip(&o.records).enumerate() {
            if *index != i as u64 || rec != payload {
                out.mismatches.push(format!(
                    "{} site {i}: campaign record {payload:?}, per-layer re-execution {rec:?}",
                    c.key
                ));
            }
            replica_counts.0 += t.replay_cycles;
            replica_counts.1 += t.post_cycles;
            replica_counts.2 += u64::from(t.extinct);
            data.sites.push(*t);
            if c.pair == 0 {
                data.baseline_restore_us.push(crate::util::us(t.restore));
            }
        }
        layers::journal_layers(dir.path(), &c.key, &o.records, &mut data.journal)?;
    }

    // A short open-loop daemon session over the same pairs, so the
    // serving layers are measured on this workload's programs too.
    let arrivals = mini_schedule(def, seed);
    let sdir = ScratchDir::new(&format!("{}-serve", def.name))?;
    let (daemon, _) = Daemon::spawn(exe, sdir.path(), THREADS)?;
    let session = serve::session(
        daemon.sock(),
        &arrivals,
        Load::Open,
        Some(report::PING_EVERY),
    )?;
    daemon.shutdown()?;
    for f in &session.fresh {
        let pair = def
            .pairs
            .iter()
            .position(|&(w, m)| w == f.spec.workload && m == f.spec.model)
            .expect("mini-session specs use the workload's pairs");
        if openloop::check_done(f, &mut out) {
            openloop::check_avf(f, &preps[pair], dir.path(), None, &mut out)?;
        }
    }
    data.session = session;

    // The baseline row: Prepared::new, golden Mcyc/s, restore µs and an
    // RF n=200 sampled campaign on one thread, for the first pair.
    let base = &data.prep[0];
    let rf = campaign::plan(false, 200, derive_seed(seed, "baseline-rf"));
    let o = campaign::run(
        &preps[0],
        HwStructure::RegisterFile,
        &rf,
        &[FaultModel::BitFlip],
        1,
        dir.path(),
        None,
    )?;
    out.notes.push(format!(
        "baseline {}: prepare_s={:.3} golden_cycles={} golden_mcyc_per_s={:.3} restore_us_p50={:.1} rf_n200_ms_per_injection={:.2}",
        pair_key(def.pairs[0]),
        prepare_s,
        base.golden_cycles,
        base.golden_cycles as f64 / base.golden.as_secs_f64() / 1e6,
        median(&data.baseline_restore_us),
        ms(o.wall) / 200.0
    ));

    out.exact = reference;
    out.exact.extend(golden_counters(def, &preps));
    out.exact
        .push(("ooo.replay_cycles".into(), replica_counts.0.to_string()));
    out.exact
        .push(("ooo.post_cycles".into(), replica_counts.1.to_string()));
    out.exact
        .push(("ooo.extinct".into(), replica_counts.2.to_string()));
    out.attempted = data.sites.len() as u64 + data.session.fresh.len() as u64;
    out.failed += data.session.errors;
    out.notes.extend(report::notes(&data));
    out.metrics = report::layer_metrics(&data);
    Ok(out)
}

/// Six small avf campaigns on the workload's first pair and structure,
/// alternating high and low priority, plus two reads, over two seconds.
fn mini_schedule(def: &Def, seed: u64) -> Vec<(Duration, Arrival)> {
    let (workload, model) = def.pairs[0];
    (0..8u64)
        .map(|k| {
            let due = Duration::from_millis(250 * k);
            let a = if k % 4 == 3 {
                Arrival::Read
            } else {
                Arrival::Fresh(Spec {
                    engine: "avf",
                    workload,
                    model,
                    structure: def.structures[0],
                    priority: if k % 2 == 0 { "high" } else { "low" },
                    faults: 6,
                    seed: derive_seed(seed, &format!("mini/{k}")),
                })
            };
            (due, a)
        })
        .collect()
}
