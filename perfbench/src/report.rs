//! The traced run's per-layer metrics, assembled from the spans the
//! benchmark took around each layer's calls.

use std::time::Duration;

use vulnstack_core::trace::MetricsReport;
use vulnstack_gefin::prune::PruneStats;

use crate::layers::{JournalTimings, PrepLayers, SiteTiming};
use crate::serve::{self, Session};
use crate::util::{median, ms, percentile, ratio, us, Metrics};
use crate::THREADS;

/// Ping period of the traced runs' daemon sessions.
pub const PING_EVERY: Duration = Duration::from_millis(100);

/// Everything a traced run measured, layer by layer.
#[derive(Debug, Default)]
pub struct LayerData {
    /// One entry per (workload, core model) pair.
    pub prep: Vec<PrepLayers>,
    /// One `Pruner::new` per campaign.
    pub prune_setup: Vec<Duration>,
    /// Summed prune counters: sites, dead, static dead, pilots, memo
    /// hits, singletons, early terminated, runaway terminated.
    pub prune: [u64; 8],
    /// Sites the metered campaigns served.
    pub sites_served: u64,
    /// Per-layer replica timings, one per site.
    pub sites: Vec<SiteTiming>,
    pub baseline_restore_us: Vec<f64>,
    /// Metered campaigns.
    pub sched: Vec<MetricsReport>,
    pub journal: JournalTimings,
    pub session: Session,
    /// Metered over untraced campaign wall time, minus one.
    pub overhead: f64,
}

impl LayerData {
    pub fn add_prune(&mut self, p: &PruneStats) {
        let v = [
            p.sites,
            p.dead_masked,
            p.static_dead,
            p.pilot_runs,
            p.memo_hits,
            p.singleton_runs,
            p.early_terminated,
            p.runaway_terminated,
        ];
        for (acc, x) in self.prune.iter_mut().zip(v) {
            *acc += x;
        }
    }
}

fn sum(d: impl Iterator<Item = Duration>) -> Duration {
    d.sum()
}

/// Per-worker idle time at the end of a campaign: from each worker's
/// last finished site to the last site of the campaign, summed.
fn tail_idle_us(r: &MetricsReport) -> u64 {
    let mut last = vec![0u64; r.per_worker.len().max(1)];
    for s in &r.spans {
        if let Some(l) = last.get_mut(s.worker) {
            *l = (*l).max(s.end_us);
        }
    }
    let end = last.iter().copied().max().unwrap_or(0);
    last.iter().map(|l| end - l).sum()
}

pub fn layer_metrics(d: &LayerData) -> Metrics {
    let mut m = Metrics::default();
    let prep_ms = |f: fn(&PrepLayers) -> Duration| ms(sum(d.prep.iter().map(f)));
    m.put("compiler.compile_ms", prep_ms(|p| p.compile), "ms");
    m.put("kernel.image_ms", prep_ms(|p| p.image), "ms");
    m.put("snapshot.record_ms", prep_ms(|p| p.record), "ms");
    m.put(
        "snapshot.count",
        d.prep.iter().map(|p| p.snapshots).sum::<u64>() as f64,
        "count",
    );
    m.put(
        "snapshot.rss_mib",
        d.prep.iter().map(|p| p.record_rss_mib).sum(),
        "MiB",
    );

    let restores: Vec<f64> = d.sites.iter().map(|s| us(s.restore)).collect();
    let total = sum(d.sites.iter().map(|s| s.total)).as_secs_f64();
    let share =
        |f: fn(&SiteTiming) -> Duration| ratio(sum(d.sites.iter().map(f)).as_secs_f64(), total);
    m.put("snapshot.restore_us_p50", percentile(&restores, 0.5), "us");
    m.put("snapshot.restore_us_p90", percentile(&restores, 0.9), "us");
    m.put("snapshot.restore_share", share(|s| s.restore), "fraction");

    let replay_cycles: u64 = d.sites.iter().map(|s| s.replay_cycles).sum();
    let post_cycles: u64 = d.sites.iter().map(|s| s.post_cycles).sum();
    let sim_time = sum(d.sites.iter().map(|s| s.replay + s.post)).as_secs_f64();
    m.put("ooo.replay_cycles", replay_cycles as f64, "cycles");
    m.put("ooo.replay_share", share(|s| s.replay), "fraction");
    m.put("ooo.post_cycles", post_cycles as f64, "cycles");
    m.put("ooo.post_share", share(|s| s.post), "fraction");
    m.put(
        "ooo.mcyc_per_s",
        ratio((replay_cycles + post_cycles) as f64, sim_time) / 1e6,
        "Mcyc/s",
    );
    let golden_cycles: u64 = d.prep.iter().map(|p| p.golden_cycles).sum();
    let golden_s = sum(d.prep.iter().map(|p| p.golden)).as_secs_f64();
    m.put("ooo.golden_cycles", golden_cycles as f64, "cycles");
    m.put(
        "ooo.golden_mcyc_per_s",
        ratio(golden_cycles as f64, golden_s) / 1e6,
        "Mcyc/s",
    );
    let extinct = d.sites.iter().filter(|s| s.extinct).count();
    m.put(
        "ooo.extinct_frac",
        ratio(extinct as f64, d.sites.len() as f64),
        "fraction",
    );
    m.put(
        "ooo.extinct_check_share",
        share(|s| s.extinct_check),
        "fraction",
    );
    m.put("ooo.finish_share", share(|s| s.finish), "fraction");
    let lat: Vec<f64> = d.sites.iter().map(|s| ms(s.total)).collect();
    m.put("inj.latency_ms_p50", percentile(&lat, 0.5), "ms");
    m.put("inj.latency_ms_p90", percentile(&lat, 0.9), "ms");

    m.put("analyze.classifier_ms", prep_ms(|p| p.classifier), "ms");
    m.put(
        "prune.setup_ms",
        ms(sum(d.prune_setup.iter().copied())),
        "ms",
    );
    let names = [
        "prune.dead",
        "prune.static_dead",
        "prune.pilots",
        "prune.memo_hits",
        "prune.singletons",
        "prune.early_terminated",
        "prune.runaway_terminated",
    ];
    for (name, v) in names.into_iter().zip(&d.prune[1..]) {
        m.put(name, *v as f64, "count");
    }
    // Sites that needed a simulation of their own: everything but the
    // dead and memoized ones. Unpruned campaigns simulate every site.
    let simulated = d.sites_served - d.prune[1] - d.prune[4];
    m.put(
        "prune.sim_frac",
        ratio(simulated as f64, d.sites_served as f64),
        "fraction",
    );

    let busy: u64 = d
        .sched
        .iter()
        .flat_map(|r| &r.per_worker)
        .map(|w| w.busy_us)
        .sum();
    let span: u64 = d.sched.iter().map(|r| r.wall_us * THREADS as u64).sum();
    m.put(
        "sched.busy_frac",
        ratio(busy as f64, span as f64),
        "fraction",
    );
    m.put(
        "sched.tail_idle_ms",
        d.sched.iter().map(tail_idle_us).sum::<u64>() as f64 / 1e3,
        "ms",
    );
    let weighted: f64 = d
        .sched
        .iter()
        .map(|r| r.mean_restore_distance() * r.sites as f64)
        .sum();
    let sites: u64 = d.sched.iter().map(|r| r.sites).sum();
    m.put(
        "sched.restore_distance_mean",
        ratio(weighted, sites as f64),
        "cycles",
    );

    m.put("journal.append_us_p50", median(&d.journal.append_us), "us");
    m.put("journal.flush_ms_p50", median(&d.journal.flush_ms), "ms");
    m.put("journal.resume_ms", median(&d.journal.resume_ms), "ms");

    let s = &d.session;
    m.put("serve.submit_rtt_ms_p50", median(&s.submit_rtt_ms), "ms");
    m.put("serve.ping_rtt_ms_p50", median(&s.ping_rtt_ms), "ms");
    let read_records: u64 = s.reads.iter().map(|r| r.1).sum();
    let read_s: f64 = s.reads.iter().map(|r| r.0.as_secs_f64()).sum();
    m.put(
        "serve.read_records_per_s",
        ratio(read_records as f64, read_s),
        "1/s",
    );
    m.put("fair.high_low_p50_ratio", serve::high_low_ratio(s), "ratio");

    let instrs: u64 = d.prep.iter().map(|p| p.func_instrs).sum();
    let func_s = sum(d.prep.iter().map(|p| p.func)).as_secs_f64();
    m.put(
        "func.minstr_per_s",
        ratio(instrs as f64, func_s) / 1e6,
        "Minstr/s",
    );
    m.put("llfi.golden_ms", prep_ms(|p| p.llfi), "ms");
    m.put("trace.overhead_frac", d.overhead, "fraction");
    m.put("loadgen.lag_ms_max", ms(s.lag_max), "ms");
    m
}

/// Sample counts and bases printed beside the per-layer metrics.
pub fn notes(d: &LayerData) -> Vec<String> {
    let extinct = d.sites.iter().filter(|s| s.extinct).count();
    let lat: Vec<f64> = d.sites.iter().map(|s| ms(s.total)).collect();
    let cut = 20.0 * median(&lat);
    let slow: Vec<f64> = lat.iter().copied().filter(|&l| l > cut).collect();
    vec![
        format!(
            "replica: {} sites on {THREADS} threads, {extinct} extinct early; {} sites over \
             20x the median latency take {:.0}% of the replica's time",
            d.sites.len(),
            slow.len(),
            100.0 * ratio(slow.iter().sum(), lat.iter().sum())
        ),
        format!(
            "metered campaigns: {} serving {} sites; journal: {} appends, {} flushes, {} resumes",
            d.sched.len(),
            d.sites_served,
            d.journal.append_us.len(),
            d.journal.flush_ms.len(),
            d.journal.resume_ms.len()
        ),
        format!(
            "daemon session: {} campaigns, {} reads, {} pings, {} connections",
            d.session.fresh.len(),
            d.session.reads.len(),
            d.session.ping_rtt_ms.len(),
            serve::CONNS
        ),
    ]
}
