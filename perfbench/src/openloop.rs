//! The `serve-open-loop` workload: independent tenants submit small
//! journal-backed campaigns to a daemon child on a fixed arrival
//! schedule, and some arrivals re-read finished campaigns.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use vulnstack_core::trace::{CampaignMetrics, MetricsReport};
use vulnstack_gefin::Prepared;
use vulnstack_microarch::ooo::HwStructure;
use vulnstack_microarch::{CoreModel, FaultModel};
use vulnstack_workloads::WorkloadId;

use crate::campaign;
use crate::inproc::pair_key;
use crate::layers;
use crate::report::{self, LayerData};
use crate::serve::{self, Arrival, Daemon, Load, Session, Spec};
use crate::util::{derive_seed, digest, median, ms, percentile, ratio, Rng, ScratchDir};
use crate::{RunOut, THREADS};

/// Fresh campaigns per second the daemon completes on this tenant mix
/// when kept saturated, from `perfbench saturate --campaigns 150` on a
/// 2-vCPU x86-64 VM: 18.3–20.3 campaigns/s at 2, 4 and 8 in flight on
/// two seeds, a plateau from 2 in flight on (16.3–18.3 in a later run
/// with the shared host busier).
const CAPACITY: f64 = 19.5;
/// Offered fresh campaigns as a share of `CAPACITY`. Queueing makes
/// campaign latency grow with the daemon's utilization ρ roughly as
/// 1/(1 − ρ), so a host slowdown is amplified by that factor in the
/// latencies: at 0.5 the ten-seed spreads of the latency metrics on a
/// busy shared host reached 0.21, close to their bound. At 0.3 the
/// amplification is about 1.4, and the load still queues.
const LOAD: f64 = 0.3;
/// Every fourth arrival is a read.
const READ_EVERY: usize = 4;
/// Arrivals per second, fresh campaigns and reads together.
const RATE: f64 = LOAD * CAPACITY * READ_EVERY as f64 / (READ_EVERY - 1) as f64;
/// Daemon spawns per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// The tenants, `(engine, workload, core model, faults)`; each submits
/// at low, normal and high priority in turn. Three of five are avf
/// tenants, so the medians fall inside the avf campaigns' spread rather
/// than on the edge between engines.
const TENANTS: [(&str, WorkloadId, CoreModel, u64); 5] = [
    ("avf", WorkloadId::Fft, CoreModel::A9, 10),
    ("avf", WorkloadId::Fft, CoreModel::A72, 10),
    ("avf", WorkloadId::Qsort, CoreModel::A9, 10),
    ("pvf", WorkloadId::Qsort, CoreModel::A72, 40),
    ("svf", WorkloadId::Qsort, CoreModel::A72, 40),
];
const ENGINES: [&str; 3] = ["avf", "pvf", "svf"];
const PRIORITIES: [&str; 3] = ["low", "normal", "high"];

/// Campaigns in the opening burst: two from every tenant at every
/// priority, all due at once. One each left the daemon's peak memory to
/// the steady arrivals: glibc keeps the burst's freed memory in its
/// per-thread arenas, and the steady preparations, landing in other
/// arenas, could still grow the resident set past the burst's peak.
const BURST: usize = 2 * TENANTS.len() * PRIORITIES.len();
/// Faults of each avf campaign in the burst: enough that the cheaper
/// avf preparations are still in use, running their sites, when the
/// costliest one completes, so that every burst preparation is resident
/// at the peak.
const BURST_AVF_FAULTS: u64 = 100;
/// From the burst to the first of the steady arrivals: the burst's
/// injections take about 5 s at `CAPACITY`.
const BURST_GAP: Duration = Duration::from_millis(6000);

/// The arrival schedule. It opens with a burst of `BURST` campaigns due
/// at once; their preparations are all resident together, which sets
/// the daemon's peak memory, where otherwise the peak would depend on
/// how a seed's arrivals happen to overlap. After `BURST_GAP`, by when
/// the daemon has worked off the burst, come `RATE × seconds` arrivals,
/// one per period, each at a seeded uniform offset within its period.
/// Tenants and priorities follow a fixed rotation, so the mix does not
/// depend on the seed.
pub fn schedule(seed: u64, seconds: u64) -> Vec<(Duration, Arrival)> {
    let n = (RATE * seconds as f64).ceil() as usize;
    let mut rng = Rng::new(derive_seed(seed, "arrivals"));
    let campaign_seed = |k: usize| derive_seed(seed, &format!("campaign/{k}"));
    let mut out: Vec<(Duration, Arrival)> = (0..BURST)
        .map(|k| {
            let mut s = tenant_spec(k, campaign_seed(k));
            if s.engine == "avf" {
                s.faults = BURST_AVF_FAULTS;
            }
            (Duration::ZERO, Arrival::Fresh(s))
        })
        .collect();
    let mut fresh = BURST;
    for k in 0..n {
        let due = BURST_GAP + Duration::from_secs_f64((k as f64 + rng.unit()) / RATE);
        if k % READ_EVERY == READ_EVERY - 1 {
            out.push((due, Arrival::Read));
        } else {
            out.push((
                due,
                Arrival::Fresh(tenant_spec(fresh, campaign_seed(BURST + k))),
            ));
            fresh += 1;
        }
    }
    out
}

/// The `i`-th fresh campaign of the tenants' rotation.
fn tenant_spec(i: usize, seed: u64) -> Spec {
    let (engine, workload, model, faults) = TENANTS[i % TENANTS.len()];
    Spec {
        engine,
        workload,
        model,
        structure: HwStructure::L1d,
        priority: PRIORITIES[(i / TENANTS.len()) % PRIORITIES.len()],
        faults,
        seed,
    }
}

/// Latencies of the campaigns after the opening burst, which would
/// otherwise time the burst's queue rather than the daemon.
fn after_burst(s: &Session) -> Vec<&serve::Fresh> {
    s.fresh.iter().filter(|f| f.arrival >= BURST).collect()
}

/// Campaign wall time of a daemon: the seconds in which at least one
/// of `campaigns` was live, from its scheduled submit to its `done`.
fn live_seconds(campaigns: &[&serve::Fresh]) -> f64 {
    let mut spans: Vec<(Duration, Duration)> = campaigns
        .iter()
        .filter_map(|f| f.done.map(|d| (f.due, f.due + d)))
        .collect();
    spans.sort_unstable();
    let mut live = Duration::ZERO;
    let mut covered = Duration::ZERO;
    for (from, to) in spans {
        let from = from.max(covered);
        if to > from {
            live += to - from;
            covered = to;
        }
    }
    live.as_secs_f64()
}

/// Daemon set-up times over `SETUP_REPS` spawns; the last daemon is
/// kept running for the session.
fn spawn(exe: &Path, dir: &ScratchDir, reps: usize) -> Result<(Daemon, Vec<f64>), String> {
    let mut times = Vec::new();
    for rep in 0..reps {
        let sub = dir.path().join(format!("d{rep}"));
        std::fs::create_dir_all(&sub).map_err(|e| format!("create {}: {e}", sub.display()))?;
        let (d, took) = Daemon::spawn(exe, &sub, THREADS)?;
        times.push(took.as_secs_f64());
        if rep + 1 == reps {
            return Ok((d, times));
        }
        d.shutdown()?;
    }
    unreachable!("at least one daemon spawn")
}

/// True when a daemon campaign ended `done` with all its records;
/// otherwise counts it as failed.
pub fn check_done(f: &serve::Fresh, out: &mut RunOut) -> bool {
    let ok = f.state == "done" && f.records.len() as u64 == f.spec.faults;
    if !ok {
        out.failed += 1;
        out.mismatches.push(format!(
            "campaign {} ({} {}): state {:?} with {} of {} records",
            f.arrival,
            f.spec.engine,
            f.spec.priority,
            f.state,
            f.records.len(),
            f.spec.faults
        ));
    }
    ok
}

/// Runs a daemon avf campaign's spec in-process; its report and records
/// must be byte-identical to the daemon's.
pub fn check_avf(
    f: &serve::Fresh,
    prep: &Prepared,
    dir: &Path,
    metrics: Option<&CampaignMetrics>,
    out: &mut RunOut,
) -> Result<campaign::Outcome, String> {
    let plan = f.spec.plan();
    let o = campaign::run(
        prep,
        f.spec.structure,
        &plan,
        &[FaultModel::BitFlip],
        THREADS,
        dir,
        metrics,
    )?;
    let want = campaign::report(f.spec.workload.name(), &plan, f.spec.structure, &o);
    if f.report != want || f.records != o.records {
        out.mismatches.push(format!(
            "campaign {}: daemon report or records differ from the in-process campaign\n  \
             daemon:     {}  in-process: {}",
            f.arrival, f.report, want
        ));
    }
    Ok(o)
}

/// Checks every campaign of the session; returns the in-process runs
/// of the avf ones.
fn check(
    s: &Session,
    dir: &ScratchDir,
    preps: &mut BTreeMap<String, Prepared>,
    metered: bool,
    out: &mut RunOut,
) -> Result<Vec<(campaign::Outcome, Option<MetricsReport>)>, String> {
    let mut refs = Vec::new();
    for f in &s.fresh {
        if !check_done(f, out) || f.spec.engine != "avf" {
            continue;
        }
        let key = pair_key((f.spec.workload, f.spec.model));
        if !preps.contains_key(&key) {
            let p = campaign::prepare(&f.spec.workload.build(), f.spec.model)?;
            preps.insert(key.clone(), p);
        }
        let m = metered.then(|| CampaignMetrics::new(&key));
        let o = check_avf(f, &preps[&key], dir.path(), m.as_ref(), out)?;
        refs.push((o, m.map(|m| m.report())));
    }
    Ok(refs)
}

/// Record digests per engine, over campaigns in arrival order.
fn exact(s: &Session) -> Vec<(String, String)> {
    let mut per: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    for f in &s.fresh {
        let d = digest(f.records.iter().map(|r| r.1.as_str()));
        per.entry(f.spec.engine)
            .or_default()
            .push(format!("{d:016x}"));
    }
    per.into_iter()
        .map(|(engine, ds)| {
            let joined = ds.join("\n");
            (
                format!("digest/{engine}"),
                format!("{:016x}", digest([joined.as_str()])),
            )
        })
        .collect()
}

fn notes(s: &Session, setups: usize) -> Vec<String> {
    vec![format!(
        "open loop: {} arrivals at {RATE:.3}/s, {} fresh campaigns, {} reads ({} attempted), \
         {} generator threads on {} connections, {setups} daemon spawns, lag max {:.2} ms",
        s.fresh.len() as u64 + s.reads_attempted,
        s.fresh.len(),
        s.reads.len(),
        s.reads_attempted,
        serve::CONNS,
        serve::CONNS,
        ms(s.lag_max)
    )]
}

pub fn run(seed: u64, seconds: u64, exe: &Path) -> Result<RunOut, String> {
    let arrivals = schedule(seed, seconds);
    let dir = ScratchDir::new("serve-open-loop")?;
    let (daemon, setups) = spawn(exe, &dir, SETUP_REPS)?;
    let s = serve::session(daemon.sock(), &arrivals, Load::Open, None)?;
    let rss = daemon.peak_rss_mib()?;
    daemon.shutdown()?;

    let mut out = RunOut::default();
    check(&s, &dir, &mut BTreeMap::new(), false, &mut out)?;
    let timed = after_burst(&s);
    let latencies: Vec<f64> = timed
        .iter()
        .filter_map(|f| f.done.map(|d| d.as_secs_f64()))
        .collect();
    let firsts: Vec<f64> = timed
        .iter()
        .filter_map(|f| f.first_record.map(ms))
        .collect();
    let reads: Vec<f64> = s.reads.iter().map(|r| ms(r.0)).collect();
    let inj_per_s = ratio(
        timed.iter().map(|f| f.records.len() as f64).sum(),
        live_seconds(&timed),
    );
    if latencies.is_empty() || reads.is_empty() {
        return Err("session completed no campaign or no read".to_string());
    }

    out.attempted = s.fresh.len() as u64 + s.reads_attempted;
    out.failed += s.errors;
    out.notes = notes(&s, setups.len());
    let setup_ms: Vec<f64> = setups.iter().map(|t| t * 1e3).collect();
    out.notes.push(format!(
        "daemon set-up over {} spawns: min {:.2} ms, median {:.2} ms, max {:.2} ms",
        setups.len(),
        percentile(&setup_ms, 0.0),
        median(&setup_ms),
        percentile(&setup_ms, 1.0)
    ));
    out.notes.push(format!(
        "latency samples: {} campaigns after the burst of {BURST} ({} beyond p90), {} reads",
        latencies.len(),
        latencies.len() - (latencies.len() as f64 * 0.9).ceil() as usize,
        reads.len()
    ));
    for engine in ENGINES {
        let mine: Vec<&&serve::Fresh> = timed.iter().filter(|f| f.spec.engine == engine).collect();
        let lat: Vec<f64> = mine.iter().filter_map(|f| f.done.map(ms)).collect();
        let first: Vec<f64> = mine.iter().filter_map(|f| f.first_record.map(ms)).collect();
        if !lat.is_empty() && !first.is_empty() {
            out.notes.push(format!(
                "{engine}: {} campaigns, latency p50 {:.1} ms, first record p50 {:.1} ms",
                lat.len(),
                median(&lat),
                median(&first)
            ));
        }
    }
    out.exact = exact(&s);
    let m = &mut out.metrics;
    m.put("inj_per_s", inj_per_s, "1/s");
    m.put("setup_s", median(&setups), "s");
    m.put("peak_rss_mib", rss, "MiB");
    m.put(
        "ok_frac",
        1.0 - ratio(out.failed as f64, out.attempted as f64),
        "fraction",
    );
    m.put("campaign_p50_s", percentile(&latencies, 0.5), "s");
    m.put("campaign_p90_s", percentile(&latencies, 0.9), "s");
    m.put("first_record_p50_ms", median(&firsts), "ms");
    m.put("read_p50_ms", median(&reads), "ms");
    Ok(out)
}

/// `Prepared::new` runs per pair behind the traced run's layer shares.
const PREP_REPS: usize = 5;

/// In-flight campaigns per connection that `saturate` tries.
const SATURATE_DEPTHS: [usize; 3] = [1, 2, 4];

/// The daemon's capacity on the open loop's tenant mix. For each depth
/// in `SATURATE_DEPTHS`, `n` fresh campaigns of the tenants' rotation
/// go out in a closed loop that keeps that many in flight per
/// connection; returns one line per depth with the campaigns completed
/// per second. Each depth's session must end within the generator's
/// drain limit, so keep `n` to a few hundred.
pub fn saturate(seed: u64, n: usize, exe: &Path) -> Result<Vec<String>, String> {
    let dir = ScratchDir::new("saturate")?;
    let (daemon, _) = spawn(exe, &dir, 1)?;
    let mut lines = Vec::new();
    for depth in SATURATE_DEPTHS {
        let arrivals: Vec<(Duration, Arrival)> = (0..n)
            .map(|i| {
                let s = derive_seed(seed, &format!("saturate/{depth}/{i}"));
                (Duration::ZERO, Arrival::Fresh(tenant_spec(i, s)))
            })
            .collect();
        let t0 = Instant::now();
        let s = serve::session(daemon.sock(), &arrivals, Load::Closed(depth), None)?;
        let wall = t0.elapsed().as_secs_f64();
        let mut out = RunOut::default();
        for f in &s.fresh {
            check_done(f, &mut out);
        }
        if !out.mismatches.is_empty() || s.errors > 0 {
            return Err(format!(
                "saturation run failed: {} error responses; {}",
                s.errors,
                out.mismatches.join("; ")
            ));
        }
        let records: usize = s.fresh.iter().map(|f| f.records.len()).sum();
        let lat: Vec<f64> = s.fresh.iter().filter_map(|f| f.done.map(ms)).collect();
        lines.push(format!(
            "saturate: {} in flight ({depth} per connection): {n} campaigns in {wall:.2} s, \
             {:.2} campaigns/s, {:.0} injections/s, campaign latency p50 {:.0} ms",
            depth * serve::CONNS,
            n as f64 / wall,
            records as f64 / wall,
            median(&lat)
        ));
    }
    lines.push(format!(
        "saturate: daemon peak RSS {:.0} MiB; the open loop offers {:.2} fresh campaigns/s \
         ({LOAD} of the recorded capacity {CAPACITY}/s) plus reads, {RATE:.3} arrivals/s",
        daemon.peak_rss_mib()?,
        LOAD * CAPACITY
    ));
    daemon.shutdown()?;
    Ok(lines)
}

/// Re-executes a daemon avf campaign's sites through the per-layer
/// calls; each must reproduce the daemon's record.
fn replicate(f: &serve::Fresh, prep: &Prepared, out: &mut RunOut) -> Vec<layers::SiteTiming> {
    let sites = campaign::sites(
        prep,
        f.spec.structure,
        &f.spec.plan(),
        &[FaultModel::BitFlip],
    );
    let replayed = layers::replay_sites(prep, f.spec.structure, &sites, THREADS);
    let mut timings = Vec::with_capacity(replayed.len());
    for (i, ((rec, t), (index, payload))) in replayed.iter().zip(&f.records).enumerate() {
        if *index != i as u64 || rec != payload {
            out.mismatches.push(format!(
                "campaign {} site {i}: daemon record {payload:?}, per-layer re-execution {rec:?}",
                f.arrival
            ));
        }
        timings.push(*t);
    }
    timings
}

/// The traced run: the same session with pings under load, then the
/// per-layer measurements over the session's own campaigns.
pub fn traced(seed: u64, seconds: u64, exe: &Path) -> Result<RunOut, String> {
    let arrivals = schedule(seed, seconds);
    let dir = ScratchDir::new("serve-open-loop")?;
    let (daemon, _) = spawn(exe, &dir, 1)?;
    let s = serve::session(
        daemon.sock(),
        &arrivals,
        Load::Open,
        Some(report::PING_EVERY),
    )?;
    daemon.shutdown()?;

    let mut out = RunOut::default();
    let mut preps = BTreeMap::new();
    let plain = check(&s, &dir, &mut preps, false, &mut out)?;
    let metered = check(&s, &dir, &mut preps, true, &mut out)?;
    let wall = |r: &[(campaign::Outcome, Option<_>)]| {
        r.iter().map(|(o, _)| o.wall.as_secs_f64()).sum::<f64>()
    };

    let mut data = LayerData {
        overhead: wall(&metered) / wall(&plain) - 1.0,
        ..LayerData::default()
    };
    for (o, rep) in &metered {
        data.sched
            .push(rep.clone().expect("metered campaigns have reports"));
        data.sites_served += o.records.len() as u64;
    }
    let mut pairs: Vec<(WorkloadId, CoreModel)> = Vec::new();
    for &(e, w, m, _) in &TENANTS {
        if e == "avf" && !pairs.contains(&(w, m)) {
            pairs.push((w, m));
        }
    }
    // Warm `Prepared::new` time per pair, the median of `PREP_REPS`:
    // the daemon prepares every campaign afresh, mostly in memory that
    // earlier campaigns freed, where a single cold preparation would
    // also time the page faults of fresh memory.
    let mut warm_prep_ms = BTreeMap::new();
    for &(w, m) in &pairs {
        let workload = w.build();
        data.prep.push(layers::prep_layers(&workload, m)?);
        data.prune_setup.push(campaign::pruner_setup(
            &preps[&pair_key((w, m))],
            HwStructure::L1d,
        ));
        let mut times = Vec::new();
        for _ in 0..PREP_REPS {
            let t = Instant::now();
            drop(campaign::prepare(&workload, m)?);
            times.push(ms(t.elapsed()));
        }
        warm_prep_ms.insert((w, m), median(&times));
    }
    // Layer time of the campaigns after the burst, per engine: summed
    // daemon latency, then preparation and injection sites (avf only,
    // from the in-process layers) and journal writes.
    let mut split: BTreeMap<&str, [f64; 4]> = BTreeMap::new();
    for f in &s.fresh {
        let (appends, flushes) = (data.journal.append_us.len(), data.journal.flush_ms.len());
        layers::journal_layers(
            dir.path(),
            &format!("campaign-{}", f.arrival),
            &f.records,
            &mut data.journal,
        )?;
        let journal_ms = data.journal.append_us[appends..].iter().sum::<f64>() / 1e3
            + data.journal.flush_ms[flushes..].iter().sum::<f64>();
        let mut sites_ms = 0.0;
        let mut prep_ms = 0.0;
        if f.spec.engine == "avf" {
            prep_ms = warm_prep_ms[&(f.spec.workload, f.spec.model)];
            let sites = replicate(
                f,
                &preps[&pair_key((f.spec.workload, f.spec.model))],
                &mut out,
            );
            sites_ms = sites.iter().map(|t| ms(t.total)).sum::<f64>() / THREADS as f64;
            data.sites.extend(sites);
        }
        if let (true, Some(done)) = (f.arrival >= BURST, f.done) {
            let acc = split.entry(f.spec.engine).or_default();
            for (a, v) in acc
                .iter_mut()
                .zip([ms(done), prep_ms, sites_ms, journal_ms])
            {
                *a += v;
            }
        }
    }
    let mut shares = Vec::new();
    for (engine, [lat, prep, sites, journal]) in &split {
        let pct = |x: f64| 100.0 * ratio(x, *lat);
        shares.push(if *engine == "avf" {
            format!(
                "layer shares of avf campaign latency after the burst ({lat:.0} ms summed): \
                 preparation {:.1}%, injection sites {:.1}%, journal writes {:.2}%, \
                 rest (queueing, fair scheduler, RPC, streaming) {:.1}%",
                pct(*prep),
                pct(*sites),
                pct(*journal),
                100.0 - pct(prep + sites + journal)
            )
        } else {
            format!(
                "layer shares of {engine} campaign latency after the burst ({lat:.0} ms summed): \
                 journal writes {:.2}%; the rest, golden run and injections on FuncCore or \
                 the VIR interpreter plus queueing, is not split",
                pct(*journal)
            )
        });
    }
    let (replay, post): (u64, u64) = data
        .sites
        .iter()
        .fold((0, 0), |a, t| (a.0 + t.replay_cycles, a.1 + t.post_cycles));
    out.exact = exact(&s);
    out.exact
        .push(("ooo.replay_cycles".into(), replay.to_string()));
    out.exact.push(("ooo.post_cycles".into(), post.to_string()));
    out.exact.push((
        "ooo.extinct".into(),
        data.sites.iter().filter(|t| t.extinct).count().to_string(),
    ));
    out.attempted = s.fresh.len() as u64 + s.reads_attempted;
    out.failed += s.errors;
    out.notes = notes(&s, 1);
    out.notes.extend(shares);
    data.session = s;
    out.notes.extend(report::notes(&data));
    out.metrics = report::layer_metrics(&data);
    Ok(out)
}
