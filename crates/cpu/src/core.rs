//! The interval core timing model.
//!
//! The paper simulates a 4-wide out-of-order core in Gem5; we substitute an
//! *interval model* that preserves the properties its results depend on
//! (DESIGN.md §5): non-memory instructions retire at pipeline width;
//! independent long-latency misses overlap up to an MLP limit bounded by
//! the ROB; dependent (pointer-chasing) accesses serialize on the previous
//! access's completion. Added memory latency — exactly what CTE translation
//! and page expansion inject — therefore slows the core the same way it
//! would slow the paper's OoO core.

use std::collections::VecDeque;

use dylect_cache::prefetch::{NextLinePrefetcher, StridePrefetcher};
use dylect_cache::{CacheConfig, SetAssocCache};
use dylect_sim_core::probe::{
    AccessComponent, AccessRecord, AccessScope, MemLevel, ProbeHandle, RequestClass,
    TranslationPath,
};
use dylect_sim_core::prof;
use dylect_sim_core::snap::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};
use dylect_sim_core::stats::Counter;
use dylect_sim_core::trace::MemOp;
use dylect_sim_core::{PhysAddr, Time, BLOCK_BYTES};

use crate::tlb::{PageSizeMode, Tlb, TlbConfig, TlbOutcome};
use crate::walker::{PageTableLayout, PageWalker};

/// How a request leaves the core for the shared memory system.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BackendOp {
    /// A demand fill (load or store miss; write-allocate).
    Read,
    /// A dirty-block writeback from the core's L2.
    Writeback,
    /// A page-walk read.
    PageWalk,
    /// A prefetch fill (off the critical path).
    Prefetch,
}

/// The shared memory system below the core's private caches (L3 + memory
/// controller + DRAM). Implemented by the system assembly crate.
pub trait MemoryBackend {
    /// Serves one 64 B block request; returns the data-ready time.
    fn access(&mut self, now: Time, addr: PhysAddr, op: BackendOp) -> Time;
}

/// Core configuration (paper Table 3).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct CoreConfig {
    /// Clock frequency in GHz.
    pub freq_ghz: f64,
    /// Pipeline width (instructions per cycle for non-memory work).
    pub width: u32,
    /// Reorder-buffer depth.
    pub rob: u32,
    /// Maximum overlapping long-latency misses.
    pub mlp: usize,
    /// Private L1 data cache bytes / ways.
    pub l1_bytes: u64,
    /// L1 associativity.
    pub l1_ways: u32,
    /// Private L2 bytes.
    pub l2_bytes: u64,
    /// L2 associativity.
    pub l2_ways: u32,
    /// L2 hit latency (accumulated, from the core).
    pub l2_hit_latency: Time,
    /// Extra latency of an L2-TLB hit.
    pub l2_tlb_penalty_cycles: u32,
    /// Page size the OS maps the workload with.
    pub page_mode: PageSizeMode,
    /// Virtualized (2D) page walks: every guest page-table access and the
    /// data page itself need a host translation, served by the walker's
    /// nested cache or a host-table read.
    pub nested_walk: bool,
}

impl CoreConfig {
    /// The paper's core: 2.8 GHz, 4-wide, 224-entry ROB, 32 KB L1, 256 KB
    /// L2, huge pages.
    pub fn paper() -> Self {
        CoreConfig {
            freq_ghz: 2.8,
            width: 4,
            rob: 224,
            mlp: 12,
            l1_bytes: 32 * 1024,
            l1_ways: 8,
            l2_bytes: 256 * 1024,
            l2_ways: 8,
            l2_hit_latency: Time::from_ns(5.0),
            l2_tlb_penalty_cycles: 7,
            page_mode: PageSizeMode::Huge2M,
            nested_walk: false,
        }
    }

    /// Picoseconds per core clock.
    pub fn cycle(&self) -> Time {
        Time::from_ps((1000.0 / self.freq_ghz).round() as u64)
    }
}

/// Per-core execution statistics.
#[derive(Clone, Debug, Default)]
pub struct CoreStats {
    /// Instructions committed (memory ops + their `work`).
    pub instructions: Counter,
    /// Memory operations executed.
    pub mem_ops: Counter,
    /// Committed stores.
    pub stores: Counter,
    /// L1 data misses.
    pub l1_misses: Counter,
    /// L2 (private) misses that went to the shared backend.
    pub l2_misses: Counter,
    /// Cycles (approximated) spent stalled on page walks.
    pub walk_time: Time,
}

/// One simulated core: private L1/L2, TLBs, walker, prefetchers, and the
/// interval timing state.
///
/// Cores are driven by [`Core::step`] with one [`MemOp`] at a time; the
/// shared system below them is abstracted as a [`MemoryBackend`].
#[derive(Clone, Debug)]
pub struct Core {
    cfg: CoreConfig,
    /// Cached `cfg.cycle()`: the float divide + round is too expensive to
    /// redo on every retired op.
    cycle: Time,
    /// `log2(width)` when the pipeline width is a power of two (it always
    /// is in practice); `u32::MAX` selects the division fallback.
    width_shift: u32,
    /// Cached ROB slip window, `cycle * (rob / width)`.
    rob_window: Time,
    layout: PageTableLayout,
    time: Time,
    l1: SetAssocCache,
    l2: SetAssocCache,
    tlb: Tlb,
    walker: PageWalker,
    stride_pf: StridePrefetcher,
    nextline_pf: NextLinePrefetcher,
    outstanding: VecDeque<Time>,
    last_completion: Time,
    stats: CoreStats,
    probe: ProbeHandle,
    /// Address-space identifier tagged into every TLB entry (0 = the
    /// untagged single-process default).
    asid: u16,
    /// Machine-physical base of this core's address space in bytes (0 for
    /// a single tenant). Local (guest-physical) addresses are offset by
    /// this before leaving the core.
    phys_base: u64,
    /// First machine-physical page this core may touch.
    phys_first_page: u64,
    /// One past the last machine-physical page this core may touch.
    phys_page_limit: u64,
}

impl Core {
    /// Creates an idle core at time zero.
    pub fn new(cfg: CoreConfig, layout: PageTableLayout) -> Self {
        Core {
            l1: SetAssocCache::new(CacheConfig::lru(cfg.l1_bytes, cfg.l1_ways, BLOCK_BYTES)),
            l2: SetAssocCache::new(CacheConfig::lru(cfg.l2_bytes, cfg.l2_ways, BLOCK_BYTES)),
            tlb: Tlb::new(TlbConfig::default()),
            walker: PageWalker::new(128),
            stride_pf: StridePrefetcher::new(64, 2),
            nextline_pf: NextLinePrefetcher::new(),
            outstanding: VecDeque::new(),
            time: Time::ZERO,
            last_completion: Time::ZERO,
            stats: CoreStats::default(),
            probe: ProbeHandle::disabled(),
            cycle: cfg.cycle(),
            width_shift: if cfg.width.is_power_of_two() {
                cfg.width.trailing_zeros()
            } else {
                u32::MAX
            },
            rob_window: cfg.cycle() * (cfg.rob / cfg.width) as u64,
            asid: 0,
            phys_base: 0,
            phys_first_page: 0,
            phys_page_limit: layout.total_os_pages(),
            cfg,
            layout,
        }
    }

    /// Attaches a telemetry probe; each retired memory operation then emits
    /// a core-scope latency-attribution record.
    pub fn set_probe(&mut self, probe: ProbeHandle) {
        self.probe = probe;
    }

    /// Places this core's address space: TLB entries are tagged with
    /// `asid` and every address leaving the core is offset by `phys_base`
    /// bytes. `(0, 0)` is the single-tenant default and changes nothing.
    ///
    /// # Panics
    ///
    /// Panics if `phys_base` is not page-aligned.
    pub fn set_address_space(&mut self, asid: u16, phys_base: u64) {
        assert_eq!(phys_base % dylect_sim_core::PAGE_BYTES, 0, "page-aligned");
        self.asid = asid;
        self.phys_base = phys_base;
        self.phys_first_page = phys_base / dylect_sim_core::PAGE_BYTES;
        self.phys_page_limit = self.phys_first_page + self.layout.total_os_pages();
    }

    /// The core's current local time.
    pub fn time(&self) -> Time {
        self.time
    }

    /// Execution statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// The TLB (for miss-rate reporting).
    pub fn tlb(&self) -> &Tlb {
        &self.tlb
    }

    /// The page walker (for nested-walk reporting).
    pub fn walker(&self) -> &PageWalker {
        &self.walker
    }

    /// Resets statistics after warmup without touching cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = CoreStats::default();
        self.tlb.reset_stats();
        self.l1.reset_stats();
        self.l2.reset_stats();
    }

    /// Advances core-local time by non-memory work and ROB stalls, executes
    /// one memory operation through the hierarchy, and returns its
    /// completion time.
    pub fn step<B: MemoryBackend + ?Sized>(&mut self, op: MemOp, backend: &mut B) -> Time {
        if self.probe.is_enabled() {
            self.step_inner::<true, B>(op, backend)
        } else {
            self.step_inner::<false, B>(op, backend)
        }
    }

    #[inline]
    fn step_inner<const PROBE: bool, B: MemoryBackend + ?Sized>(
        &mut self,
        op: MemOp,
        backend: &mut B,
    ) -> Time {
        self.stats.instructions.add(op.instructions());
        self.stats.mem_ops.incr();
        if op.write {
            self.stats.stores.incr();
        }
        let cycle = self.cycle;
        // Non-memory instructions retire at pipeline width.
        let work_ps = cycle.as_ps() * op.work as u64;
        self.time += Time::from_ps(if self.width_shift != u32::MAX {
            work_ps >> self.width_shift
        } else {
            work_ps / self.cfg.width as u64
        });
        // Pointer chases wait for the previous value.
        if op.dep_on_prev {
            self.time = self.time.max(self.last_completion);
        }
        let issue = self.time;

        // Address translation.
        let translated_at = match self
            .tlb
            .lookup_asid(op.vaddr, self.cfg.page_mode, self.asid)
        {
            TlbOutcome::L1Hit => issue,
            TlbOutcome::L2Hit => issue + cycle * self.cfg.l2_tlb_penalty_cycles as u64,
            TlbOutcome::Miss => {
                let done = self.do_walk(issue, op.vaddr, backend);
                self.tlb.fill_asid(op.vaddr, self.cfg.page_mode, self.asid);
                self.stats.walk_time += done - issue;
                done
            }
        };

        // Virtual-to-physical is identity in this simulator (DESIGN.md):
        // translation *cost* is modeled, the mapping itself is 1:1. Tenants
        // are placed side by side in machine-physical space by `phys_base`.
        let phys = PhysAddr::new(self.phys_base + op.vaddr.raw());
        let done = self.mem_access(translated_at, phys, op.write, backend);

        if PROBE {
            // Core view of the retired op: TLB/page-walk time, then the
            // cache-hierarchy (and below) time.
            self.probe.emit_access(&AccessRecord::new(
                AccessScope::Core,
                RequestClass::Demand,
                MemLevel::None,
                TranslationPath::None,
                issue,
                done.saturating_sub(issue),
                &[
                    (
                        AccessComponent::TlbWalk,
                        translated_at.saturating_sub(issue),
                    ),
                    (
                        AccessComponent::CacheLookup,
                        done.saturating_sub(translated_at),
                    ),
                ],
            ));
        }

        // Interval-model bookkeeping for long-latency misses.
        let latency = done.saturating_sub(issue);
        if latency > self.cfg.l2_hit_latency {
            if self.outstanding.len() >= self.cfg.mlp {
                let head = self.outstanding.pop_front().expect("mlp > 0");
                self.time = self.time.max(head);
            }
            self.outstanding.push_back(done);
            // The ROB cannot slip more than rob/width cycles past the oldest
            // outstanding miss.
            if let Some(&head) = self.outstanding.front() {
                self.time = self.time.max(head.saturating_sub(self.rob_window));
            }
        }
        self.last_completion = done;
        done
    }

    /// Waits out all outstanding misses (call at the end of a run before
    /// reading `time`).
    pub fn drain(&mut self) {
        while let Some(t) = self.outstanding.pop_front() {
            self.time = self.time.max(t);
        }
        self.time = self.time.max(self.last_completion);
    }

    /// A page walk: serial accesses to page-table blocks through the cache
    /// hierarchy.
    fn do_walk<B: MemoryBackend + ?Sized>(
        &mut self,
        now: Time,
        vaddr: dylect_sim_core::VirtAddr,
        backend: &mut B,
    ) -> Time {
        // Sampled host timer; walk behavior is unaffected.
        let _p = prof::sampled_scope(prof::HostPhase::TlbWalk);
        let plan = self.walker.walk(vaddr, self.cfg.page_mode, &self.layout);
        let mut t = now;
        for addr in plan {
            t = self.walk_read(t, addr, backend);
        }
        // In a 2D walk the data page's own guest-physical address needs a
        // host translation before the TLB can cache vaddr → machine
        // physical. No-op (and no cost) for a non-nested layout.
        if let Some(host) = self
            .walker
            .host_translate(PhysAddr::new(vaddr.raw()), &self.layout)
        {
            t = self.walk_read(t, host, backend);
        }
        t
    }

    /// One page-walk read: through L2 (not L1), then the shared backend.
    /// `addr` is local (guest-physical); the machine-physical offset is
    /// applied here.
    fn walk_read<B: MemoryBackend + ?Sized>(
        &mut self,
        now: Time,
        addr: PhysAddr,
        backend: &mut B,
    ) -> Time {
        let addr = PhysAddr::new(self.phys_base + addr.raw());
        let key = self.l2.key_of(addr.raw());
        if self.l2.access(key) {
            now + self.cfg.l2_hit_latency
        } else {
            let done = backend.access(now, addr, BackendOp::PageWalk);
            self.fill_l2(addr, false, backend, done);
            done
        }
    }

    /// Data access through L1 → L2 → backend with write-allocate and
    /// cascading dirty writebacks; returns the data-ready time.
    #[inline]
    fn mem_access<B: MemoryBackend + ?Sized>(
        &mut self,
        now: Time,
        phys: PhysAddr,
        write: bool,
        backend: &mut B,
    ) -> Time {
        let key = self.l1.key_of(phys.raw());
        // Combined lookup + write-allocate install: one L1 set scan per op.
        let (l1_hit, l1_victim) = self.l1.access_fill(key, write);
        if l1_hit {
            return now; // L1 latency is hidden by the pipeline
        }
        self.stats.l1_misses.incr();

        // L1-miss stride prefetch (degree 2), keyed by page as a PC-less
        // stream id.
        let candidates = self
            .stride_pf
            .on_demand(phys.page().index(), phys.block_index());
        for &c in &candidates {
            self.prefetch_block(now, PhysAddr::new(c * BLOCK_BYTES), backend);
        }

        let done = if self.l2.access(key) {
            now + self.cfg.l2_hit_latency
        } else {
            self.stats.l2_misses.incr();
            // L2-miss next-line prefetch.
            if let Some(c) = self.nextline_pf.on_demand(phys.block_index()) {
                self.prefetch_block(now, PhysAddr::new(c * BLOCK_BYTES), backend);
            }
            let done = backend.access(now, phys, BackendOp::Read);
            self.fill_l2(phys, false, backend, done);
            done
        };
        // The L1 victim's dirty data folds into L2 (after the demand fill,
        // matching the former access-then-fill ordering).
        if let Some(ev) = l1_victim {
            if ev.dirty {
                self.l2.fill(ev.key, true, ());
            }
        }
        done
    }

    /// Installs `addr` in L2 after a miss (the caller has just observed the
    /// block absent), spilling any dirty victim to the backend.
    fn fill_l2<B: MemoryBackend + ?Sized>(
        &mut self,
        addr: PhysAddr,
        dirty: bool,
        backend: &mut B,
        now: Time,
    ) {
        let key = self.l2.key_of(addr.raw());
        if let Some(ev) = self.l2.fill_after_miss(key, dirty, ()) {
            if ev.dirty {
                backend.access(
                    now,
                    PhysAddr::new(ev.key * BLOCK_BYTES),
                    BackendOp::Writeback,
                );
            }
        }
    }

    fn prefetch_block<B: MemoryBackend + ?Sized>(
        &mut self,
        now: Time,
        addr: PhysAddr,
        backend: &mut B,
    ) {
        // Never prefetch beyond this core's OS-visible range.
        let page = addr.page().index();
        if page < self.phys_first_page || page >= self.phys_page_limit {
            return;
        }
        let key = self.l2.key_of(addr.raw());
        if self.l2.probe(key) {
            return;
        }
        backend.access(now, addr, BackendOp::Prefetch);
        self.fill_l2(addr, false, backend, now);
    }
}

// Configuration and derived fields (cfg, cycle, width_shift, rob_window,
// layout, asid, phys_base and the derived page bounds) are construction
// state; the probe handle is reinstalled by the
// owner. Note `outstanding` may legitimately be non-empty at a snapshot
// boundary — in-flight miss completions are part of the interval model's
// timing state and must round-trip.
impl Snapshot for Core {
    fn write_snapshot(&self, w: &mut SnapWriter) {
        self.time.write_snapshot(w);
        self.l1.write_snapshot(w);
        self.l2.write_snapshot(w);
        self.tlb.write_snapshot(w);
        self.walker.write_snapshot(w);
        self.stride_pf.write_snapshot(w);
        self.nextline_pf.write_snapshot(w);
        w.seq(self.outstanding.len());
        for t in &self.outstanding {
            t.write_snapshot(w);
        }
        self.last_completion.write_snapshot(w);
        self.stats.instructions.write_snapshot(w);
        self.stats.mem_ops.write_snapshot(w);
        self.stats.stores.write_snapshot(w);
        self.stats.l1_misses.write_snapshot(w);
        self.stats.l2_misses.write_snapshot(w);
        self.stats.walk_time.write_snapshot(w);
    }
}

impl Restore for Core {
    fn restore_snapshot(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.time.restore_snapshot(r)?;
        self.l1.restore_snapshot(r)?;
        self.l2.restore_snapshot(r)?;
        self.tlb.restore_snapshot(r)?;
        self.walker.restore_snapshot(r)?;
        self.stride_pf.restore_snapshot(r)?;
        self.nextline_pf.restore_snapshot(r)?;
        let n = r.seq(8)?;
        if n > self.cfg.mlp {
            return Err(SnapError::Corrupt("outstanding misses exceed MLP"));
        }
        self.outstanding.clear();
        for _ in 0..n {
            let mut t = Time::ZERO;
            t.restore_snapshot(r)?;
            self.outstanding.push_back(t);
        }
        self.last_completion.restore_snapshot(r)?;
        self.stats.instructions.restore_snapshot(r)?;
        self.stats.mem_ops.restore_snapshot(r)?;
        self.stats.stores.restore_snapshot(r)?;
        self.stats.l1_misses.restore_snapshot(r)?;
        self.stats.l2_misses.restore_snapshot(r)?;
        self.stats.walk_time.restore_snapshot(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dylect_sim_core::VirtAddr;

    /// A backend with a fixed service latency that records its requests.
    struct FixedBackend {
        latency: Time,
        log: Vec<(PhysAddr, BackendOp)>,
    }

    impl FixedBackend {
        fn new(ns: f64) -> Self {
            FixedBackend {
                latency: Time::from_ns(ns),
                log: Vec::new(),
            }
        }
    }

    impl MemoryBackend for FixedBackend {
        fn access(&mut self, now: Time, addr: PhysAddr, op: BackendOp) -> Time {
            self.log.push((addr, op));
            now + self.latency
        }
    }

    fn core() -> Core {
        Core::new(CoreConfig::paper(), PageTableLayout::new(1 << 20))
    }

    #[test]
    fn l1_hits_are_free() {
        let mut c = core();
        let mut b = FixedBackend::new(100.0);
        let a = VirtAddr::new(0x1000);
        c.step(MemOp::load(a, 0), &mut b);
        let t0 = c.time();
        let done = c.step(MemOp::load(a, 0), &mut b);
        assert_eq!(done, t0, "repeat access must hit L1");
        assert_eq!(c.stats().l1_misses.get(), 1);
    }

    #[test]
    fn work_advances_time_at_width() {
        let mut c = core();
        let mut b = FixedBackend::new(0.0);
        c.step(MemOp::load(VirtAddr::new(0), 400), &mut b);
        // 400 instructions at width 4 = 100 cycles of 357 ps.
        assert_eq!(c.time(), CoreConfig::paper().cycle() * 100);
    }

    #[test]
    fn dependent_misses_serialize() {
        let mut c = core();
        let mut b = FixedBackend::new(100.0);
        // Independent chain: 8 distinct blocks, no deps.
        for i in 0..8u64 {
            c.step(MemOp::load(VirtAddr::new(i * 4096), 0), &mut b);
        }
        c.drain();
        let t_indep = c.time();

        let mut c2 = core();
        let mut b2 = FixedBackend::new(100.0);
        for i in 0..8u64 {
            c2.step(MemOp::load(VirtAddr::new(i * 4096), 0).dependent(), &mut b2);
        }
        c2.drain();
        assert!(
            c2.time().as_ns() > t_indep.as_ns() * 2.0,
            "dependent {} vs independent {}",
            c2.time(),
            t_indep
        );
    }

    #[test]
    fn mlp_caps_overlap() {
        let mut c = core();
        let mut b = FixedBackend::new(1000.0);
        // 60 independent misses with zero work: at MLP 12 they take at
        // least 5 serialized waves.
        for i in 0..60u64 {
            c.step(MemOp::load(VirtAddr::new(i * 4096), 0), &mut b);
        }
        c.drain();
        assert!(c.time().as_ns() >= 5.0 * 1000.0 * 0.9, "time {}", c.time());
    }

    #[test]
    fn huge_pages_walk_less_than_4k() {
        let paper = CoreConfig::paper();
        // 1 GiB footprint: 512 huge pages fit the L2 TLB, 256k standard
        // pages thrash it — the Figure 3 contrast.
        let layout = PageTableLayout::new(1 << 18);
        let run = |mode: PageSizeMode| {
            let mut c = Core::new(
                CoreConfig {
                    page_mode: mode,
                    ..paper
                },
                layout,
            );
            let mut b = FixedBackend::new(60.0);
            let mut x = 12345u64;
            for _ in 0..20_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let page = (x >> 33) % (1 << 18);
                c.step(MemOp::load(VirtAddr::new(page * 4096), 2), &mut b);
            }
            c.drain();
            (c.tlb().stats().miss_rate(), c.time())
        };
        let (miss_4k, t_4k) = run(PageSizeMode::Standard4K);
        let (miss_2m, t_2m) = run(PageSizeMode::Huge2M);
        assert!(
            miss_4k > miss_2m * 5.0,
            "4K miss rate {miss_4k:.3} vs 2M {miss_2m:.3}"
        );
        assert!(t_4k > t_2m, "huge pages should be faster");
    }

    #[test]
    fn dirty_evictions_become_writebacks() {
        let mut c = core();
        let mut b = FixedBackend::new(10.0);
        // Write a footprint much larger than L2 (256 KB = 4096 blocks).
        for i in 0..20_000u64 {
            c.step(MemOp::store(VirtAddr::new(i * 64), 0), &mut b);
        }
        assert!(
            b.log.iter().any(|(_, op)| *op == BackendOp::Writeback),
            "L2 should spill dirty blocks"
        );
    }

    #[test]
    fn sequential_streams_trigger_prefetch() {
        let mut c = core();
        let mut b = FixedBackend::new(50.0);
        for i in 0..64u64 {
            c.step(MemOp::load(VirtAddr::new(i * 64), 0), &mut b);
        }
        assert!(
            b.log.iter().any(|(_, op)| *op == BackendOp::Prefetch),
            "sequential stream should prefetch"
        );
    }

    #[test]
    fn walks_reach_the_backend_as_pagewalk() {
        let mut c = core();
        let mut b = FixedBackend::new(10.0);
        c.step(MemOp::load(VirtAddr::new(0x10_0000), 0), &mut b);
        assert!(b.log.iter().any(|(_, op)| *op == BackendOp::PageWalk));
        assert!(c.stats().walk_time > Time::ZERO);
    }

    #[test]
    fn nested_walks_cost_more_walk_time() {
        let run = |nested: bool| {
            let cfg = CoreConfig {
                nested_walk: nested,
                page_mode: PageSizeMode::Standard4K,
                ..CoreConfig::paper()
            };
            let layout = if nested {
                PageTableLayout::nested(1 << 18)
            } else {
                PageTableLayout::new(1 << 18)
            };
            let mut c = Core::new(cfg, layout);
            let mut b = FixedBackend::new(60.0);
            let mut x = 999u64;
            for _ in 0..20_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let page = (x >> 33) % (1 << 18);
                c.step(MemOp::load(VirtAddr::new(page * 4096), 2), &mut b);
            }
            c.drain();
            (c.stats().walk_time, c.walker().stats().host_reads.get())
        };
        let (t_flat, host_flat) = run(false);
        let (t_nested, host_nested) = run(true);
        assert_eq!(host_flat, 0);
        assert!(host_nested > 0, "2D walks must read the host table");
        assert!(
            t_nested > t_flat,
            "nested {t_nested} should exceed flat {t_flat}"
        );
    }

    #[test]
    fn address_space_offsets_all_backend_traffic() {
        let layout = PageTableLayout::new(1 << 16);
        let span = layout.total_os_pages() * 4096;
        let base = span.next_multiple_of(4096 * 512);
        let mut c = Core::new(CoreConfig::paper(), layout);
        c.set_address_space(3, base);
        let mut b = FixedBackend::new(50.0);
        let mut x = 7u64;
        for _ in 0..2_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let page = (x >> 33) % (1 << 16);
            c.step(MemOp::load(VirtAddr::new(page * 4096), 1), &mut b);
        }
        assert!(!b.log.is_empty());
        for (addr, _) in &b.log {
            assert!(
                addr.raw() >= base && addr.raw() < base + span,
                "backend saw out-of-tenant address {addr:?}"
            );
        }
    }

    #[test]
    fn drain_is_idempotent() {
        let mut c = core();
        let mut b = FixedBackend::new(100.0);
        c.step(MemOp::load(VirtAddr::new(0), 0), &mut b);
        c.drain();
        let t = c.time();
        c.drain();
        assert_eq!(c.time(), t);
    }
}
