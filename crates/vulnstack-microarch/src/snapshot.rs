//! Checkpoint-and-restore for injection campaigns.
//!
//! Every injection in a statistical campaign re-simulates the fault-free
//! prefix of the run before it can flip its bit: a campaign of `n`
//! uniformly placed faults wastes ~`n·golden_cycles/2` cycles of
//! identical warm-up. [`CheckpointStore`] removes that cost by cloning
//! the whole core ([`OooCore`] owns every bit of simulation state, so
//! `Clone` is a perfect snapshot) every `interval` cycles during the
//! golden run; a campaign then restores the nearest checkpoint at or
//! before the injection cycle and simulates only the delta.
//!
//! The store is **adaptive**: it starts from a small interval and, when
//! the run outgrows the configured snapshot budget, drops every other
//! snapshot and doubles the interval. Short runs therefore get fine
//! spacing while long runs keep at most `max_snapshots` snapshots.
//!
//! Cloning is cheap because main memory and the three cache arrays are
//! copy-on-write: they are stored as reference-counted 4 KiB pages and
//! 256-line chunks, a clone copies only the pointers, and a write copies
//! just the page or chunk it lands in. Snapshots therefore share every
//! page and chunk the run did not rewrite between them, and a restore
//! copies pointers and the pipeline bookkeeping, not the 2 MiB of an
//! A72's L2. [`CheckpointStore::resident_bytes`] counts what the store
//! really holds: each snapshot's own state plus each shared page or
//! chunk once.
//!
//! Determinism: the simulator draws on no external entropy and a
//! checkpoint captures *all* of its state, so a restored core stepped to
//! cycle `c` is field-by-field identical to a fresh core stepped to `c`
//! (asserted by `checkpoint_equivalence` tests in `vulnstack-gefin`).

use std::collections::HashSet;

use vulnstack_kernel::SystemImage;

use crate::config::CoreConfig;
use crate::ooo::{OooCore, OooOutcome};

/// Default snapshot spacing in cycles before any adaptive doubling.
///
/// Deliberately fine: short runs get dense checkpoints (small restore
/// deltas), and long runs double the interval until they fit the
/// snapshot cap, so the effective interval scales with run length
/// (≈ `golden_cycles / max_snapshots`, rounded up to the next
/// power-of-two multiple of this constant).
pub const DEFAULT_INTERVAL: u64 = 512;

/// Default cap on retained snapshots. Snapshots share the memory pages
/// and cache chunks the run did not rewrite between them, so the
/// marginal cost of a snapshot is the pages and chunks written in one
/// interval plus its pipeline bookkeeping, and a generous cap keeps
/// restore deltas short.
pub const DEFAULT_MAX_SNAPSHOTS: usize = 64;

/// Evenly spaced fault-free core snapshots taken during a golden run.
///
/// Invariant: `snaps[i]` is the core state at cycle `i * interval`
/// (`snaps[0]` is the pre-cycle-0 reset state), and every snapshot
/// precedes the golden run's terminal cycle.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    interval: u64,
    snaps: Vec<OooCore>,
}

impl CheckpointStore {
    /// Runs a fault-free (golden) run of `image` on `cfg` to completion
    /// (or `budget` cycles), snapshotting the core every `interval`
    /// cycles, and returns the store together with the run's outcome.
    ///
    /// Whenever the snapshot count would exceed `max_snapshots`, every
    /// other snapshot is dropped and the interval doubles, so the store
    /// holds at most `max_snapshots` snapshots regardless of run length.
    ///
    /// # Panics
    ///
    /// Panics if `interval == 0` or `max_snapshots == 0`.
    pub fn record(
        cfg: &CoreConfig,
        image: &SystemImage,
        interval: u64,
        max_snapshots: usize,
        budget: u64,
    ) -> (CheckpointStore, OooOutcome) {
        assert!(interval > 0, "checkpoint interval must be positive");
        assert!(max_snapshots > 0, "need room for at least one snapshot");
        let mut core = OooCore::new(cfg, image);
        let mut store = CheckpointStore {
            interval,
            snaps: vec![core.clone()],
        };
        loop {
            let next = store.snaps.len() as u64 * store.interval;
            if next > budget {
                break;
            }
            core.run_until(next);
            if core.ended() || core.cycle() < next {
                break;
            }
            store.snaps.push(core.clone());
            if store.snaps.len() > max_snapshots {
                store.thin();
            }
        }
        core.run_until(budget);
        (store, core.finish())
    }

    /// Halves the snapshot density: keeps every even-indexed snapshot and
    /// doubles the interval, preserving the `snaps[i] ↔ i * interval`
    /// invariant.
    fn thin(&mut self) {
        let mut i = 0usize;
        self.snaps.retain(|_| {
            let keep = i.is_multiple_of(2);
            i += 1;
            keep
        });
        self.interval *= 2;
    }

    /// The snapshot spacing in cycles (after any adaptive doubling).
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Number of retained snapshots.
    pub fn len(&self) -> usize {
        self.snaps.len()
    }

    /// Exact bytes the store holds: the snapshots themselves, their
    /// pipeline buffers, and every memory page and cache chunk they
    /// reference, each counted once by `Arc` pointer however many
    /// snapshots share it.
    pub fn resident_bytes(&self) -> usize {
        let mut seen = HashSet::new();
        size_of::<Self>()
            + self.snaps.capacity() * size_of::<OooCore>()
            + self
                .snaps
                .iter()
                .map(|s| s.heap_bytes(Some(&mut seen)))
                .sum::<usize>()
    }

    /// True if the store holds only the reset-state snapshot.
    pub fn is_empty(&self) -> bool {
        self.snaps.len() <= 1
    }

    /// Cycle of the nearest checkpoint at or before `cycle`.
    pub fn nearest_cycle(&self, cycle: u64) -> u64 {
        self.nearest(cycle).cycle()
    }

    /// Cycles of fault-free prefix a restore targeting `cycle` must
    /// re-simulate (the campaign-metrics "restore distance": the quantity
    /// the adaptive interval trades memory against).
    pub fn restore_distance(&self, cycle: u64) -> u64 {
        cycle.saturating_sub(self.nearest_cycle(cycle))
    }

    /// The snapshot taken exactly at `cycle`, if the store holds one
    /// (i.e. `cycle` is an interval boundary within the recorded run).
    /// Used by the early-termination engine, which may only compare a
    /// faulty core against golden state at the *same* cycle.
    pub fn at_cycle(&self, cycle: u64) -> Option<&OooCore> {
        if !cycle.is_multiple_of(self.interval) {
            return None;
        }
        self.snaps.get((cycle / self.interval) as usize)
    }

    /// The nearest checkpoint at or before `cycle`.
    pub fn nearest(&self, cycle: u64) -> &OooCore {
        let idx = ((cycle / self.interval) as usize).min(self.snaps.len() - 1);
        &self.snaps[idx]
    }

    /// Restores a runnable core at the nearest checkpoint at or before
    /// `cycle`; the caller advances the remaining delta with
    /// [`OooCore::run_until`].
    pub fn restore(&self, cycle: u64) -> OooCore {
        OooCore::from_checkpoint(self.nearest(cycle))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Level;
    use crate::config::CoreModel;
    use crate::outcome::RunStatus;
    use vulnstack_compiler::{compile, CompileOpts};
    use vulnstack_vir::ModuleBuilder;

    fn image() -> SystemImage {
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", 0);
        let sum = f.fresh();
        f.set_c(sum, 0);
        f.for_range(0, 400, |f, i| {
            let x = f.mul(i, i);
            let s = f.add(sum, x);
            f.set(sum, s);
        });
        f.sys_exit(0);
        f.ret(None);
        mb.finish_function(f);
        let m = mb.finish().unwrap();
        let c = compile(&m, vulnstack_isa::Isa::Va64, &CompileOpts::default()).unwrap();
        SystemImage::build(&c, &[]).unwrap()
    }

    #[test]
    fn recording_matches_plain_golden_run() {
        let img = image();
        let cfg = CoreModel::A72.config();
        let plain = OooCore::new(&cfg, &img).run(10_000_000);
        let (store, out) = CheckpointStore::record(&cfg, &img, 256, 16, 10_000_000);
        assert_eq!(out.sim.status, RunStatus::Exited(0));
        assert_eq!(out.sim.status, plain.sim.status);
        assert_eq!(out.sim.output, plain.sim.output);
        assert_eq!(out.sim.cycles, plain.sim.cycles);
        assert_eq!(out.sim.instrs, plain.sim.instrs);
        assert!(store.len() >= 2, "a multi-thousand-cycle run must snapshot");
        assert!(store.len() <= 16);
    }

    #[test]
    fn snapshots_sit_on_interval_boundaries() {
        let img = image();
        let cfg = CoreModel::A72.config();
        let (store, out) = CheckpointStore::record(&cfg, &img, 128, 8, 10_000_000);
        for (i, s) in store.snaps.iter().enumerate() {
            assert_eq!(s.cycle(), i as u64 * store.interval());
            assert!(s.cycle() < out.sim.cycles);
        }
    }

    #[test]
    fn restore_then_run_equals_run_from_scratch() {
        let img = image();
        let cfg = CoreModel::A72.config();
        let (store, out) = CheckpointStore::record(&cfg, &img, 200, 12, 10_000_000);
        for target in [1u64, 137, store.interval() + 3, out.sim.cycles - 1] {
            let mut restored = store.restore(target);
            assert!(restored.cycle() <= target);
            restored.run_until(target);
            let mut scratch = OooCore::new(&cfg, &img);
            scratch.run_until(target);
            assert!(restored == scratch, "state diverged at cycle {target}");
        }
    }

    #[test]
    fn thinning_caps_memory_and_keeps_alignment() {
        let img = image();
        let cfg = CoreModel::A72.config();
        let (store, _) = CheckpointStore::record(&cfg, &img, 16, 4, 10_000_000);
        assert!(store.len() <= 4);
        assert!(store.interval() > 16, "small cap must force doubling");
        for (i, s) in store.snaps.iter().enumerate() {
            assert_eq!(s.cycle(), i as u64 * store.interval());
        }
    }

    #[test]
    fn store_is_five_times_smaller_than_flat_copies() {
        let img = image();
        let cfg = CoreModel::A72.config();
        let (store, _) = CheckpointStore::record(
            &cfg,
            &img,
            DEFAULT_INTERVAL,
            DEFAULT_MAX_SNAPSHOTS,
            10_000_000,
        );
        // What the same snapshots would cost as deep copies.
        let flat: usize = store
            .snaps
            .iter()
            .map(|s| size_of::<OooCore>() + s.heap_bytes(None))
            .sum();
        let resident = store.resident_bytes();
        assert!(store.len() >= 4, "{} snapshots", store.len());
        assert!(
            resident * 5 <= flat,
            "store holds {resident} B for {} snapshots, flat copies {flat} B",
            store.len()
        );
    }

    #[test]
    fn flips_on_a_restored_core_leave_its_checkpoint_intact() {
        let img = image();
        let cfg = CoreModel::A72.config();
        let (store, _) = CheckpointStore::record(&cfg, &img, 256, 16, 10_000_000);
        let at = 2 * store.interval();
        let mut core = store.restore(at);
        assert_eq!(core.cycle(), at);
        // One bit in every cache array, then a stretch of run so that
        // fills, writebacks and stores rewrite shared lines and pages.
        let l2_bits = core.mem.level_bits(Level::L2);
        for (level, bit) in [
            (Level::L1i, 77),
            (Level::L1d, 12_345),
            (Level::L2, l2_bits / 3),
        ] {
            core.mem.flip_bit(level, bit);
        }
        assert!(core != *store.nearest(at), "the flips must change the core");
        core.run_until(at + 1000);

        let mut scratch = OooCore::new(&cfg, &img);
        scratch.run_until(at);
        assert!(*store.nearest(at) == scratch, "the checkpoint changed");
        assert!(store.restore(at) == scratch, "a second restore diverged");
    }
}
