//! The benchmark's only calls into the campaign API.
//!
//! Everything that prepares, plans or runs an AVF campaign goes through
//! this file, so a change to the campaign entry points changes one call
//! site here. The per-layer replica in `layers.rs` calls the layers
//! below the campaign driver directly and never the driver itself.

use std::path::Path;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use vulnstack_core::trace::CampaignMetrics;
use vulnstack_core::{FpmDist, StreamOpts, Tally};
use vulnstack_gefin::avf::ModelSite;
use vulnstack_gefin::prune::{plan_model_sites, PruneStats, Pruner};
use vulnstack_gefin::{avf_campaign_models_streamed, avf_report_json, InjectionPlan, Prepared};
use vulnstack_microarch::ooo::HwStructure;
use vulnstack_microarch::{CoreModel, FaultModel};
use vulnstack_workloads::Workload;

/// What one campaign call produced, as its caller sees it.
#[derive(Debug)]
pub struct Outcome {
    /// `(site index, encoded record)` in sampling order.
    pub records: Vec<(u64, String)>,
    /// Wall time of the campaign call.
    pub wall: Duration,
    /// From the call to the first record reaching the caller's tee.
    pub first_record: Duration,
    /// Reading the finished campaign's full record stream back.
    pub read: Duration,
    pub prune: Option<PruneStats>,
    pub quarantined: usize,
    pub per_model: Vec<(FaultModel, Tally, FpmDist)>,
}

pub fn prepare(w: &Workload, model: CoreModel) -> Result<Prepared, String> {
    Prepared::new(w, model).map_err(|e| format!("prepare {model}: {e}"))
}

/// Builds (and drops) the pruner a pruned campaign over `structure`
/// uses; returns the time it took.
pub fn pruner_setup(prep: &Prepared, structure: HwStructure) -> Duration {
    let t = Instant::now();
    let pruner = Pruner::new(prep, structure);
    let took = t.elapsed();
    drop(std::hint::black_box(pruner));
    took
}

pub fn plan(pruned: bool, n: usize, seed: u64) -> InjectionPlan {
    if pruned {
        InjectionPlan::Pruned { n, seed }
    } else {
        InjectionPlan::Sampled { n, seed }
    }
}

/// The `(cycle, site, model)` triples a campaign under `plan` injects,
/// in sampling order.
pub fn sites(
    prep: &Prepared,
    structure: HwStructure,
    plan: &InjectionPlan,
    models: &[FaultModel],
) -> Vec<ModelSite> {
    plan_model_sites(prep, structure, plan, models)
}

/// Runs one in-process, unjournaled campaign through the streaming
/// entry point. Records are spilled under `dir` and read back, which is
/// the in-process counterpart of re-subscribing to a finished campaign.
pub fn run(
    prep: &Prepared,
    structure: HwStructure,
    plan: &InjectionPlan,
    models: &[FaultModel],
    threads: usize,
    dir: &Path,
    metrics: Option<&CampaignMetrics>,
) -> Result<Outcome, String> {
    let spill = dir.join("records.spill");
    let first = OnceLock::new();
    let tee = |_: u64, _: &str| {
        first.get_or_init(Instant::now);
    };
    let t0 = Instant::now();
    let (out, prune) = avf_campaign_models_streamed(
        prep,
        structure,
        plan,
        models,
        threads,
        None,
        StreamOpts {
            spill: Some(&spill),
            tee: Some(&tee),
            ..StreamOpts::from_env()
        },
        metrics,
    )
    .map_err(|e| format!("campaign {structure}: {e}"))?;
    let wall = t0.elapsed();
    let first_record = first
        .get()
        .map_or(wall, |t| t.saturating_duration_since(t0));
    let handle = out
        .records
        .ok_or("campaign returned no record handle despite a spill file")?;
    let t1 = Instant::now();
    let mut records = handle
        .payloads()
        .map_err(|e| format!("read {}: {e}", spill.display()))?;
    let read = t1.elapsed();
    let _ = std::fs::remove_file(&spill);
    records.sort_unstable_by_key(|r| r.0);
    Ok(Outcome {
        records,
        wall,
        first_record,
        read,
        prune,
        quarantined: out.quarantined.len(),
        per_model: out.per_model,
    })
}

/// The canonical `avf --json` report for a finished campaign.
pub fn report(label: &str, plan: &InjectionPlan, structure: HwStructure, o: &Outcome) -> String {
    avf_report_json(label, plan, &[(structure.name(), o.per_model.clone())])
}
