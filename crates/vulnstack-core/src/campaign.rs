//! The campaign driver: one fault-injection campaign over a fixed site
//! list, journaled or not.
//!
//! Every engine's `_streamed` entry point (`vulnstack-gefin` AVF, PVF
//! and temporal sweeps, `vulnstack-llfi` SVF) draws its sites, builds a
//! [`Campaign`] and calls [`Campaign::run`] exactly once. The driver
//! always runs the same pipeline:
//!
//! * with a [`CampaignJournal`], open (or create) the journal, verify
//!   the fingerprint and metadata, and replay its settled sites into the
//!   caller's fold;
//! * run every remaining site through
//!   [`sched::drive_ordered_resilient`] — per-site panic isolation with
//!   bounded retry, fair-pool admission through [`StreamOpts::gate`] —
//!   into the bounded [`sink::stream`], which appends to the journal
//!   (when there is one), the optional spill file and the fold.
//!
//! So cancellation, admission and quarantine behave the same with or
//! without a journal; the journal only adds durability and resume.

use std::path::Path;

use crate::journal::{
    EntryKind, Fingerprint, Journal, JournalError, Replay, ResumeMode, ResumeStats,
};
use crate::sched::{self, Quarantine, RunPolicy, SiteResult};
use crate::sink::{self, RecordHandle, StreamOpts};
use crate::trace::CampaignMetrics;

/// The journal of one campaign: where it lives, how an existing file is
/// treated, the panic retry policy and the campaign identity. Built by
/// the engines from caller-facing [`crate::JournalOpts`] via
/// [`crate::JournalOpts::bind`].
#[derive(Debug)]
pub struct CampaignJournal<'a> {
    /// Journal file path.
    pub path: &'a Path,
    /// Treatment of an existing journal file.
    pub mode: ResumeMode,
    /// Panic retry/quarantine policy.
    pub policy: RunPolicy,
    /// Campaign identity (checked against the journal header on resume).
    pub fingerprint: Fingerprint,
    /// Campaign metadata `(key, payload)` pairs: engine-derived identity
    /// too large for the fingerprint proper (e.g. a pruning class-table
    /// digest). Written after the header on create; on resume, each pair
    /// must match what the journal replays or the resume is refused with
    /// [`JournalError::MetaMismatch`]. Empty for engines without extra
    /// identity.
    pub meta: Vec<(String, String)>,
}

impl CampaignJournal<'_> {
    /// Opens (or creates) the journal per [`CampaignJournal::mode`],
    /// writing the metadata on create and verifying it against the
    /// replay on resume.
    fn open(&self, sites: usize) -> Result<(Journal, Replay), JournalError> {
        assert_eq!(
            self.fingerprint.samples, sites as u64,
            "fingerprint samples must match the site count"
        );
        let resume = match self.mode {
            ResumeMode::Fresh => false,
            // A zero-length file means the previous run died before the
            // header write became durable: nothing to resume.
            ResumeMode::ResumeOrStart => {
                matches!(std::fs::metadata(self.path).map(|m| m.len() > 0), Ok(true))
            }
            ResumeMode::ResumeRequired => true,
        };
        if !resume {
            let journal = Journal::create(self.path, &self.fingerprint)?;
            for (key, payload) in &self.meta {
                journal.append_meta(key, payload)?;
            }
            return Ok((journal, Replay::default()));
        }
        let (journal, replay) = Journal::resume(self.path, &self.fingerprint)?;
        // Verify every expected metadata pair against the replay. A
        // missing key (e.g. its line was corrupt and truncated away) is
        // as fatal as a mismatch: resuming without agreeing on the
        // engine's derived identity would silently mix records.
        for (key, payload) in &self.meta {
            let found = replay.meta(key);
            if found != Some(payload.as_str()) {
                return Err(JournalError::MetaMismatch {
                    path: self.path.to_path_buf(),
                    key: key.clone(),
                    expected: payload.clone(),
                    found: found.map(String::from),
                });
            }
        }
        Ok((journal, replay))
    }
}

/// One campaign over a fixed site list, optionally journaled.
#[derive(Debug)]
pub struct Campaign<'a, T> {
    /// The campaign's fault sites, in sampling order.
    pub items: &'a [T],
    /// Claim order (a permutation of `0..items.len()`, usually
    /// injection-cycle-sorted for checkpoint locality).
    pub order: &'a [usize],
    /// Worker threads.
    pub threads: usize,
    /// The journal, or `None` for an in-memory run. Unjournaled runs
    /// quarantine panicking sites under [`RunPolicy::default`].
    pub journal: Option<CampaignJournal<'a>>,
}

impl<T: Sync> Campaign<'_, T> {
    /// Runs the campaign. Replayed and fresh record payloads are handed
    /// to `fold` one at a time (journal append → spill append → fold, via
    /// [`sink::stream`]) and **never collected** — peak memory is bounded
    /// by the sink channel regardless of campaign size.
    ///
    /// `fold` observes every *completed* site exactly once as
    /// `(site index, encoded payload)`, in arbitrary order (replayed
    /// sites first, then fresh sites as they settle); quarantined sites
    /// are returned in [`StreamedCampaign::quarantined`] instead. `decode`
    /// must invert `encode`; a journal whose payloads do not decode is
    /// reported corrupt rather than silently dropped.
    ///
    /// # Errors
    ///
    /// Any [`JournalError`]: filesystem failures, a missing journal in
    /// [`ResumeMode::ResumeRequired`], a fingerprint or metadata
    /// mismatch, a corrupt/out-of-range entry, or spill-file I/O errors.
    ///
    /// # Panics
    ///
    /// Panics if the fingerprint's `samples` differs from `items.len()`
    /// or `order` is not a permutation of `0..items.len()` (caller bugs).
    pub fn run<R, F, E, D, G>(
        &self,
        stream: StreamOpts<'_>,
        runner: F,
        encode: E,
        decode: D,
        mut fold: G,
        metrics: Option<&CampaignMetrics>,
    ) -> Result<StreamedCampaign, JournalError>
    where
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
        E: Fn(&R) -> String + Sync,
        D: Fn(&str) -> Option<R>,
        G: FnMut(u64, &str) + Send,
    {
        let n = self.items.len();
        sched::assert_permutation(self.order, n);
        let (journal, replay) = match &self.journal {
            Some(spec) => {
                let (journal, replay) = spec.open(n)?;
                (Some(journal), replay)
            }
            None => (None, Replay::default()),
        };
        let replayed = replay.entries.len();
        let mut settled = vec![false; n];
        let mut quarantined: Vec<Quarantine> = Vec::new();
        for e in replay.entries {
            let corrupt = |why: String| JournalError::Corrupt {
                path: self
                    .journal
                    .as_ref()
                    .map_or_else(Default::default, |j| j.path.to_path_buf()),
                why,
            };
            let i = usize::try_from(e.index).unwrap_or(usize::MAX);
            if i >= n {
                return Err(corrupt(format!(
                    "entry index {} out of range (campaign has {n} sites)",
                    e.index
                )));
            }
            match e.kind {
                EntryKind::Done(payload) => {
                    if decode(&payload).is_none() {
                        return Err(corrupt(format!("site {i}: undecodable record payload")));
                    }
                    fold(e.index, &payload);
                    // Subscribers attached after a restart still see the
                    // full stream: replayed records tee out exactly like
                    // fresh ones.
                    if let Some(t) = stream.tee {
                        t(e.index, &payload);
                    }
                }
                EntryKind::Quarantined { attempts, message } => quarantined.push(Quarantine {
                    index: i,
                    attempts,
                    message,
                }),
            }
            settled[i] = true;
        }

        // Only the missing sites run, claimed in the caller's order
        // (which preserves checkpoint locality among what remains).
        let missing: Vec<usize> = self
            .order
            .iter()
            .copied()
            .filter(|&i| !settled[i])
            .collect();
        let policy = self
            .journal
            .as_ref()
            .map_or_else(RunPolicy::default, |j| j.policy);
        let gate = stream.gate;
        let (drive, summary) = sink::stream(journal.as_ref(), stream, fold, |handle| {
            sched::drive_ordered_resilient(
                self.items,
                &missing,
                self.threads,
                policy,
                runner,
                |i, outcome| match outcome {
                    SiteResult::Done(r) => handle.push_done(i as u64, encode(&r)),
                    SiteResult::Quarantined(q) => {
                        handle.push_quarantined(i as u64, q.attempts, q.message);
                    }
                },
                metrics,
                gate,
            )
        })?;

        quarantined.extend(summary.quarantined);
        // Sites lost to a worker failure settle as zero-attempt
        // quarantines and are deliberately NOT journaled — the next
        // resume re-runs them. Sites the gate never admitted
        // (`drive.unclaimed`) are NOT failures: they stay un-journaled
        // and un-quarantined, exactly the state a later resume expects.
        quarantined.extend(drive.lost.into_iter().map(|index| Quarantine {
            index,
            attempts: 0,
            message: "site lost to a worker failure".to_string(),
        }));
        quarantined.sort_by_key(|q| q.index);
        Ok(StreamedCampaign {
            stats: ResumeStats {
                replayed,
                executed: missing.len() - drive.unclaimed.len(),
                quarantined: quarantined.len(),
                respawns: drive.respawns,
                truncated_bytes: replay.truncated_bytes,
                dropped_lines: replay.dropped_lines,
                stopped: drive.stopped,
            },
            quarantined,
            records: summary.records,
        })
    }
}

/// Outcome of one campaign run: degradation-free tallies live in the
/// caller's `fold` state; the campaign result proper carries only the
/// quarantine list, the resume accounting, and (when a spill file was
/// requested) the on-disk [`RecordHandle`] — never the records.
#[derive(Debug)]
pub struct StreamedCampaign {
    /// Quarantined sites in campaign sampling coordinates, sorted by
    /// index (replayed, freshly quarantined, and lost sites merged).
    pub quarantined: Vec<Quarantine>,
    /// Handle to the on-disk record stream, when
    /// [`StreamOpts::spill`] was set.
    pub records: Option<RecordHandle>,
    /// What was replayed vs executed.
    pub stats: ResumeStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    use crate::sched::{Admission, ClaimGate};

    fn fp(samples: u64) -> Fingerprint {
        Fingerprint {
            engine: "test-engine".into(),
            workload: "crc32".into(),
            config: "A72".into(),
            structure: "RF".into(),
            seed: 7,
            samples,
            params: String::new(),
            version: 1,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vulnstack-campaign-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn journal<'a>(
        path: &'a Path,
        mode: ResumeMode,
        samples: u64,
        meta: &[(String, String)],
    ) -> CampaignJournal<'a> {
        CampaignJournal {
            path,
            mode,
            policy: RunPolicy::default(),
            fingerprint: fp(samples),
            meta: meta.to_vec(),
        }
    }

    /// Runs `campaign` with a decimal `u64` codec; returns the folded
    /// `(site, record)` pairs in site order plus the campaign outcome.
    fn run_u64<F>(
        campaign: &Campaign<'_, u64>,
        stream: StreamOpts<'_>,
        runner: F,
    ) -> Result<(Vec<(u64, u64)>, StreamedCampaign), JournalError>
    where
        F: Fn(usize, &u64) -> u64 + Sync,
    {
        let mut got = Vec::new();
        let out = campaign.run(
            stream,
            runner,
            |r: &u64| r.to_string(),
            |s| s.parse::<u64>().ok(),
            |i, p| got.push((i, p.parse().expect("decimal payload"))),
            None,
        )?;
        got.sort_unstable();
        Ok((got, out))
    }

    #[test]
    fn journaled_campaign_replays_and_completes() {
        let path = tmp("campaign.journal");
        let _ = std::fs::remove_file(&path);
        let items: Vec<u64> = (0..12).collect();
        let order: Vec<usize> = (0..items.len()).collect();
        let mk = |mode| Campaign {
            items: &items,
            order: &order,
            threads: 3,
            journal: Some(journal(&path, mode, 12, &[])),
        };
        let expect: Vec<(u64, u64)> = items.iter().map(|&x| (x, x * 10)).collect();
        let runner = |_: usize, &x: &u64| x * 10;

        let (got, full) = run_u64(&mk(ResumeMode::Fresh), StreamOpts::from_env(), runner).unwrap();
        assert_eq!(full.stats.executed, 12);
        assert_eq!(full.stats.replayed, 0);
        assert_eq!(got, expect);

        // Drop the last 5 record lines (keep header + 7) to simulate an
        // interrupted run, then require a resume.
        let content = std::fs::read_to_string(&path).unwrap();
        let keep: Vec<&str> = content.lines().take(8).collect();
        std::fs::write(&path, format!("{}\n", keep.join("\n"))).unwrap();
        let (got, resumed) = run_u64(
            &mk(ResumeMode::ResumeRequired),
            StreamOpts::from_env(),
            runner,
        )
        .unwrap();
        assert_eq!(resumed.stats.replayed, 7);
        assert_eq!(resumed.stats.executed, 5);
        assert_eq!(got, expect, "resumed records must be bit-identical");

        // A third run replays everything.
        let (_, noop) = run_u64(
            &mk(ResumeMode::ResumeOrStart),
            StreamOpts::from_env(),
            runner,
        )
        .unwrap();
        assert_eq!(noop.stats.executed, 0);
        assert_eq!(noop.stats.replayed, 12);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn meta_roundtrips_and_verifies_on_resume() {
        let path = tmp("meta.journal");
        let _ = std::fs::remove_file(&path);
        let items: Vec<u64> = (0..6).collect();
        let order: Vec<usize> = (0..items.len()).collect();
        let meta = vec![("class-table".to_string(), "fnv=00ddc0ffee".to_string())];
        let mk = |mode| Campaign {
            items: &items,
            order: &order,
            threads: 2,
            journal: Some(journal(&path, mode, 6, &meta)),
        };
        let runner = |_: usize, &x: &u64| x + 1;
        let (a, _) = run_u64(&mk(ResumeMode::Fresh), StreamOpts::from_env(), runner).unwrap();
        let (b, resumed) = run_u64(
            &mk(ResumeMode::ResumeRequired),
            StreamOpts::from_env(),
            runner,
        )
        .unwrap();
        assert_eq!(resumed.stats.executed, 0);
        assert_eq!(resumed.stats.replayed, 6);
        assert_eq!(a, b);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mismatched_meta_refuses_resume_naming_both_digests() {
        let path = tmp("meta-mismatch.journal");
        let _ = std::fs::remove_file(&path);
        let items: Vec<u64> = (0..4).collect();
        let order: Vec<usize> = (0..items.len()).collect();
        let run = |mode, payload: &str| {
            let meta = [("class-table".to_string(), payload.to_string())];
            let campaign = Campaign {
                items: &items,
                order: &order,
                threads: 1,
                journal: Some(journal(&path, mode, 4, &meta)),
            };
            run_u64(&campaign, StreamOpts::from_env(), |_, &x| x)
        };
        run(ResumeMode::Fresh, "fnv=1111111111111111").unwrap();
        match run(ResumeMode::ResumeRequired, "fnv=2222222222222222") {
            Err(JournalError::MetaMismatch {
                key,
                expected,
                found,
                ..
            }) => {
                assert_eq!(key, "class-table");
                assert_eq!(expected, "fnv=2222222222222222");
                assert_eq!(found.as_deref(), Some("fnv=1111111111111111"));
            }
            other => panic!("expected MetaMismatch, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fuzzed_meta_line_damage_never_resumes_silently() {
        // Fuzz-style: damage the class-table `M` line many different ways
        // (byte flips at every position, truncations at every length).
        // Every damaged journal must either (a) replay the meta intact
        // (damage hit only later lines) or (b) refuse the resume with the
        // key and both payloads named — never silently resume with a
        // different class table.
        let items: Vec<u64> = (0..5).collect();
        let order: Vec<usize> = (0..items.len()).collect();
        let meta = [(
            "class-table".to_string(),
            "fnv=deadbeef01234567".to_string(),
        )];
        let path = tmp("meta-fuzz.journal");
        let _ = std::fs::remove_file(&path);
        let run = |mode| {
            let campaign = Campaign {
                items: &items,
                order: &order,
                threads: 1,
                journal: Some(journal(&path, mode, 5, &meta)),
            };
            run_u64(&campaign, StreamOpts::from_env(), |_, &x| x * 3)
        };
        run(ResumeMode::Fresh).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let text = String::from_utf8(pristine.clone()).unwrap();
        let header_len = text.find('\n').unwrap() + 1;
        let meta_len = text[header_len..].find('\n').unwrap() + 1;

        let mut cases = 0;
        // Byte flips across the M line (excluding its newline).
        for off in 0..meta_len - 1 {
            let mut bytes = pristine.clone();
            bytes[header_len + off] ^= 0x01;
            // Keep the damage on one line: never flip into '\n' or '|',
            // which would change the line structure rather than its
            // content (those are covered by the truncation cases).
            if bytes[header_len + off] == b'\n' || bytes[header_len + off] == b'|' {
                continue;
            }
            std::fs::write(&path, &bytes).unwrap();
            match run(ResumeMode::ResumeRequired) {
                Err(JournalError::MetaMismatch { key, found, .. }) => {
                    assert_eq!(key, "class-table");
                    assert_ne!(found.as_deref(), Some("fnv=deadbeef01234567"));
                }
                Err(other) => panic!("flip at {off}: unexpected error {other}"),
                Ok(_) => panic!("flip at {off}: damaged meta resumed silently"),
            }
            cases += 1;
        }
        // Truncations mid-M-line (torn write of the meta record).
        for keep in 1..meta_len - 1 {
            let mut bytes = pristine.clone();
            bytes.truncate(header_len + keep);
            std::fs::write(&path, &bytes).unwrap();
            match run(ResumeMode::ResumeRequired) {
                Err(JournalError::MetaMismatch { key, found, .. }) => {
                    assert_eq!(key, "class-table");
                    assert!(
                        found.is_none(),
                        "keep={keep}: truncated meta must be absent, got {found:?}"
                    );
                }
                Err(other) => panic!("keep={keep}: unexpected error {other}"),
                Ok(_) => panic!("keep={keep}: truncated meta resumed silently"),
            }
            cases += 1;
        }
        assert!(cases > 20, "fuzz loop must exercise many damage shapes");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journaled_campaign_journals_quarantines() {
        let path = tmp("quarantine.journal");
        let _ = std::fs::remove_file(&path);
        let items: Vec<u64> = (0..8).collect();
        let order: Vec<usize> = (0..items.len()).collect();
        let mk = |mode| Campaign {
            items: &items,
            order: &order,
            threads: 2,
            journal: Some(CampaignJournal {
                policy: RunPolicy { max_retries: 1 },
                ..journal(&path, mode, 8, &[])
            }),
        };
        let (got, out) = run_u64(&mk(ResumeMode::Fresh), StreamOpts::from_env(), |i, &x| {
            assert!(i != 5, "site 5 is poisoned");
            x
        })
        .unwrap();
        assert_eq!(out.quarantined.len(), 1);
        assert_eq!(out.quarantined[0].index, 5);
        assert_eq!(out.quarantined[0].attempts, 2);
        assert_eq!(got.len(), 7);

        // Resume replays the quarantine marker instead of re-running the
        // poison site: the campaign still completes with zero executions.
        let (_, resumed) = run_u64(
            &mk(ResumeMode::ResumeRequired),
            StreamOpts::from_env(),
            |_, &x| x,
        )
        .unwrap();
        assert_eq!(resumed.stats.executed, 0);
        assert_eq!(resumed.stats.quarantined, 1);
        let _ = std::fs::remove_file(&path);
    }

    /// Admits the first `k` claims, then stops every later one.
    struct Quota(AtomicUsize);

    impl ClaimGate for Quota {
        fn admit(&self) -> Admission {
            match self
                .0
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |l| l.checked_sub(1))
            {
                Ok(_) => Admission::Run,
                Err(_) => Admission::Stop,
            }
        }

        fn release(&self) {}
    }

    #[test]
    fn the_gate_stops_journaled_and_unjournaled_runs_alike() {
        let path = tmp("gate.journal");
        let items: Vec<u64> = (0..20).collect();
        let order: Vec<usize> = (0..items.len()).collect();
        for journaled in [false, true] {
            let _ = std::fs::remove_file(&path);
            let gate = Quota(AtomicUsize::new(6));
            let ran = AtomicUsize::new(0);
            let campaign = Campaign {
                items: &items,
                order: &order,
                threads: 2,
                journal: journaled.then(|| journal(&path, ResumeMode::Fresh, 20, &[])),
            };
            let stream = StreamOpts {
                gate: Some(&gate),
                ..StreamOpts::from_env()
            };
            let (got, out) = run_u64(&campaign, stream, |_, &x| {
                ran.fetch_add(1, Ordering::Relaxed);
                x
            })
            .unwrap();
            assert!(out.stats.stopped, "journaled={journaled}");
            assert_eq!(ran.load(Ordering::Relaxed), 6, "journaled={journaled}");
            assert_eq!(out.stats.executed, 6, "journaled={journaled}");
            assert_eq!(got.len(), 6, "journaled={journaled}");
            assert!(
                out.quarantined.is_empty(),
                "unadmitted sites are not failures"
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}
