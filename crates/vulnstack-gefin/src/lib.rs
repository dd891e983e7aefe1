//! # vulnstack-gefin
//!
//! Statistical fault-injection campaigns in the style of GeFIN (the
//! paper's gem5-based injector):
//!
//! * **AVF/HVF campaigns** ([`avf`]) — single-bit transient faults in the
//!   physical register file, the LSQ, or a cache data array of the
//!   cycle-level out-of-order core, uniformly sampled over (bit × cycle)
//!   as in Leveugle et al. Each run yields both the end-to-end fault
//!   effect (AVF) and the first architectural manifestation (HVF + FPM).
//! * **PVF campaigns** ([`pvf`]) — persistent single-bit faults in
//!   *architectural* state (registers, program-flow memory, or encoded
//!   instructions split into WD / WOI / WI populations), executed on the
//!   functional full-system core, kernel included.
//!
//! Campaigns are deterministic for a given seed and embarrassingly
//! parallel: fault sites are pre-drawn, sorted by injection cycle for
//! checkpoint locality, and distributed over a work-stealing scheduler
//! (`vulnstack_core::sched`) whose results are scattered back to
//! sampling order — so the output is bit-identical at any thread count.
//! Microarchitectural runs warm-start from golden-run checkpoints
//! (`vulnstack_microarch::snapshot`) instead of re-simulating the
//! fault-free prefix from cycle 0.

pub mod ace;
pub mod avf;
pub mod compare;
pub mod prepare;
pub mod prune;
pub mod pvf;
pub mod report;
pub mod sweep;

pub use ace::ace_analysis;
pub use avf::{
    avf_campaign, avf_campaign_metered, avf_campaign_models, avf_campaign_models_streamed,
    avf_campaign_traced, avf_campaign_with, canonical_models, decode_record, draw_model_sites,
    draw_sites, encode_record, per_model_tallies, run_one_model, run_one_traced, AvfCampaignResult,
    AvfStreamed, InjectEngine, InjectionRecord, ModelSite,
};
pub use compare::{static_vs_dynamic, StaticDynamicComparison};
pub use prepare::{FuncPrepared, Prepared};
pub use prune::{
    early_term_enabled, plan_model_sites, prune_default, static_classifier, ClassKey, ClassTable,
    InjectionPlan, PruneStats, Pruner, SiteClass,
};
pub use pvf::{pvf_campaign, pvf_campaign_streamed, PvfMode, PvfStreamed};
pub use report::{avf_report_json, ModelReport};
pub use sweep::{
    temporal_campaign, temporal_campaign_pruned, temporal_campaign_streamed, TemporalProfile,
    TemporalStreamed,
};

// The warn-on-malformed env-knob parser now lives in `vulnstack-microarch`
// (the one crate every engine already depends on), so the CLI and the
// microarchitecture's own knobs share it.
pub(crate) use vulnstack_microarch::env_knob;

/// Returns the number of worker threads to use: `VULNSTACK_THREADS` or
/// the available parallelism (capped at 16). A malformed value warns on
/// stderr and falls back.
pub fn default_threads() -> usize {
    if let Some(n) = env_knob::<usize>("VULNSTACK_THREADS", "thread count") {
        return n.max(1);
    }
    std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .min(16)
}

/// Returns the per-structure fault count: `VULNSTACK_FAULTS` or the given
/// default. The paper used 2,000; the bench harness defaults lower to
/// keep full-figure reproduction runs tractable. A malformed value warns
/// on stderr and falls back.
pub fn default_faults(default: usize) -> usize {
    if let Some(n) = env_knob::<usize>("VULNSTACK_FAULTS", "fault count") {
        return n.max(1);
    }
    default
}
