//! The shared memory system: L3 + compressed-memory controller(s) + DRAM.
//!
//! Like all prior works, DyLeCT is a module *within* a memory controller;
//! systems with multiple MCs run one independent module per MC, each
//! compressing only its locally-attached DRAM with no cross-MC coherence
//! (paper §IV-D). [`SharedMemory`] therefore holds one or more
//! `(scheme, DRAM)` pairs and routes each physical page to its home MC by
//! page-granular interleaving; statistics aggregate across MCs.

use dylect_cache::{CacheConfig, SetAssocCache};
use dylect_cpu::{BackendOp, MemoryBackend};
use dylect_dram::{Dram, DramStats, EnergyBreakdown, QueueStats};
use dylect_memctl::{McResponse, McStats, MemoryScheme, Occupancy};
use dylect_sim_core::blackbox;
use dylect_sim_core::probe::{
    AccessComponent, AccessRecord, AccessScope, MemLevel, ProbeHandle, RequestClass, SpanPhase,
    SpanRecord, TranslationPath,
};
use dylect_sim_core::prof;
use dylect_sim_core::snap::{Restore as _, SnapError, SnapReader, SnapWriter, Snapshot as _};
use dylect_sim_core::stats::{Counter, MeanAccumulator};
use dylect_sim_core::{PhysAddr, Time, BLOCK_BYTES, PAGE_BYTES};

/// Statistics of the shared side of the hierarchy.
#[derive(Clone, Debug, Default)]
pub struct SharedStats {
    /// L3 hits.
    pub l3_hits: Counter,
    /// L3 misses (demand + walks + prefetches).
    pub l3_misses: Counter,
    /// Mean demand L3-miss service latency, ns.
    pub l3_miss_latency: MeanAccumulator,
    /// Mean compressed-memory overhead per demand L3 miss, ns — the
    /// Figure 21 "L3 miss latency adder".
    pub l3_miss_overhead: MeanAccumulator,
}

/// One memory controller and its locally-attached DRAM.
struct McUnit {
    scheme: Box<dyn MemoryScheme>,
    dram: Dram,
    /// Dirty-line writebacks routed here but not yet applied. Multi-MC
    /// configurations defer these to the run loop's drain boundaries;
    /// single-MC configurations apply writebacks immediately and never
    /// queue.
    pending: Vec<PendingWriteback>,
}

/// A dirty L3 victim headed for its home MC: the writeback enters the MC
/// at `now` against MC-local address `local`. Queued per MC and applied in
/// FIFO order at the next [`SharedMemory::drain_pending`] call.
#[derive(Copy, Clone, Debug)]
struct PendingWriteback {
    now: Time,
    local: PhysAddr,
}

/// Per-component digests of the shared memory side (see
/// [`SharedMemory::component_digests`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SharedDigests {
    /// L3 tags/state + shared cache statistics.
    pub cache: u64,
    /// Queued writeback FIFOs across every MC.
    pub wb_fifos: u64,
    /// DRAM scheduler state across every MC.
    pub dram: u64,
    /// Scheme directory state across every MC.
    pub scheme: u64,
    /// Compression occupancy census.
    pub compression: u64,
}

/// Everything below the cores' private caches.
pub struct SharedMemory {
    l3: SetAssocCache,
    mcs: Vec<McUnit>,
    l3_latency: Time,
    stats: SharedStats,
    /// Attribution probe (disabled unless telemetry installs one); emits
    /// one mem-scope record per shared-memory access.
    probe: ProbeHandle,
    /// Span-sampling period over demand L3-miss reads (0 = off).
    span_every: u64,
    demand_misses: u64,
    span_seq: u64,
}

impl SharedMemory {
    /// Assembles a single-MC hierarchy (the paper's evaluated
    /// configuration).
    pub fn new(
        l3_bytes: u64,
        l3_ways: u32,
        l3_latency: Time,
        scheme: Box<dyn MemoryScheme>,
        dram: Dram,
    ) -> Self {
        Self::new_multi(l3_bytes, l3_ways, l3_latency, vec![(scheme, dram)])
    }

    /// Assembles a hierarchy with one scheme+DRAM pair per memory
    /// controller. OS pages interleave across MCs page-granularly: page `p`
    /// is served by MC `p % n` and appears to that MC as its local page
    /// `p / n`.
    ///
    /// # Panics
    ///
    /// Panics if `mcs` is empty.
    pub fn new_multi(
        l3_bytes: u64,
        l3_ways: u32,
        l3_latency: Time,
        mcs: Vec<(Box<dyn MemoryScheme>, Dram)>,
    ) -> Self {
        assert!(!mcs.is_empty(), "at least one memory controller");
        SharedMemory {
            l3: SetAssocCache::new(CacheConfig::lru(l3_bytes, l3_ways, BLOCK_BYTES)),
            mcs: mcs
                .into_iter()
                .map(|(scheme, dram)| McUnit {
                    scheme,
                    dram,
                    pending: Vec::new(),
                })
                .collect(),
            l3_latency,
            stats: SharedStats::default(),
            probe: ProbeHandle::disabled(),
            span_every: 0,
            demand_misses: 0,
            span_seq: 0,
        }
    }

    /// Number of memory controllers.
    pub fn mc_count(&self) -> usize {
        self.mcs.len()
    }

    /// The first MC's scheme (the only one in single-MC configurations).
    pub fn scheme(&self) -> &dyn MemoryScheme {
        self.mcs[0].scheme.as_ref()
    }

    /// The first MC's DRAM (the only one in single-MC configurations).
    pub fn dram(&self) -> &Dram {
        &self.mcs[0].dram
    }

    /// Scheme statistics aggregated across all MCs.
    pub fn mc_stats(&self) -> McStats {
        let mut agg = McStats::default();
        for mc in &self.mcs {
            agg.merge(mc.scheme.stats());
        }
        agg
    }

    /// DRAM statistics aggregated across all MCs.
    pub fn dram_stats(&self) -> DramStats {
        let mut agg = DramStats::default();
        for mc in &self.mcs {
            agg.merge(mc.dram.stats());
        }
        agg
    }

    /// Memory-level census aggregated across all MCs.
    pub fn occupancy(&self) -> Occupancy {
        let mut agg = Occupancy::default();
        for mc in &self.mcs {
            agg.merge(&mc.scheme.occupancy());
        }
        agg
    }

    /// DRAM queue statistics aggregated across all MCs (telemetry; not
    /// part of run reports).
    pub fn queue_stats(&self) -> QueueStats {
        let mut agg = QueueStats::default();
        for mc in &self.mcs {
            agg.merge(mc.dram.queue_stats());
        }
        agg
    }

    /// Installs one observability probe per memory controller; `make` is
    /// called with each MC's index. Probes are observation-only and do not
    /// change simulated behavior.
    pub fn set_probes(&mut self, mut make: impl FnMut(u32) -> ProbeHandle) {
        for (i, mc) in self.mcs.iter_mut().enumerate() {
            mc.scheme.set_probe(make(i as u32));
        }
    }

    /// Each MC's real CTE-cache geometry (`None` for schemes without a CTE
    /// cache), indexed by MC; sizes the telemetry shadow arrays.
    pub fn cte_cache_geometries(&self) -> Vec<Option<dylect_memctl::CteCacheGeometry>> {
        self.mcs
            .iter()
            .map(|mc| mc.scheme.cte_cache_geometry())
            .collect()
    }

    /// Installs the shared-memory access probe: one mem-scope attribution
    /// record per L3 access plus, when `span_every > 0`, begin/end trace
    /// spans for every `span_every`-th demand L3-miss read. Pass a disabled
    /// handle to turn attribution back off.
    pub fn set_access_probe(&mut self, probe: ProbeHandle, span_every: u64) {
        self.probe = probe;
        self.span_every = span_every;
        self.demand_misses = 0;
        self.span_seq = 0;
    }

    /// DRAM energy over `elapsed`, aggregated across all MCs.
    pub fn energy(&self, elapsed: Time) -> EnergyBreakdown {
        let mut agg = EnergyBreakdown::default();
        for mc in &self.mcs {
            agg.merge(&mc.dram.energy(elapsed));
        }
        agg
    }

    /// Forwards warmup acceleration to every scheme.
    pub fn set_warmup(&mut self, warmup: bool) {
        for mc in &mut self.mcs {
            mc.scheme.set_warmup(warmup);
        }
    }

    /// A scenario memory-pressure event: every MC reclaims until its free
    /// pool holds `extra_free_pages` beyond the normal target (ballooning).
    pub fn apply_pressure(&mut self, now: Time, extra_free_pages: u64) {
        for mc in &mut self.mcs {
            mc.scheme
                .apply_pressure(now, extra_free_pages, &mut mc.dram);
        }
    }

    /// Shared-side statistics.
    pub fn stats(&self) -> &SharedStats {
        &self.stats
    }

    /// Resets all shared-side statistics after warmup.
    pub fn reset_stats(&mut self) {
        // Queued writebacks belong to the pre-reset window; land them
        // before their statistics are cleared.
        self.drain_pending();
        self.stats = SharedStats::default();
        self.l3.reset_stats();
        for mc in &mut self.mcs {
            mc.scheme.reset_stats();
            mc.dram.reset_stats();
        }
    }

    /// Routes a global physical address to `(mc index, local address)`.
    /// Pages interleave across MCs; block offsets are preserved.
    fn route(&self, addr: PhysAddr) -> (usize, PhysAddr) {
        let n = self.mcs.len() as u64;
        if n == 1 {
            return (0, addr);
        }
        let page = addr.page().index();
        let local = PhysAddr::new((page / n) * PAGE_BYTES + addr.page_offset());
        ((page % n) as usize, local)
    }

    fn mc_access(&mut self, now: Time, addr: PhysAddr, write: bool) -> (McResponse, u32) {
        let (idx, local) = self.route(addr);
        let mc = &mut self.mcs[idx];
        // Sampled host timer only; the scheme sees nothing of it.
        let _p = prof::sampled_scope(prof::HostPhase::SchemeAccess);
        let resp = mc.scheme.access(now, local, write, &mut mc.dram);
        (resp, idx as u32)
    }

    fn spill(&mut self, now: Time, key: u64, dirty: bool) {
        if let Some(ev) = self.l3.fill(key, dirty, ()) {
            if ev.dirty {
                let addr = PhysAddr::new(ev.key * BLOCK_BYTES);
                if self.mcs.len() > 1 {
                    // Multi-MC: queue on the victim's home MC. Writeback
                    // latency is off the critical path (the caller never
                    // waits on it), so deferring to the next drain
                    // boundary only delays MC state mutation.
                    let (idx, local) = self.route(addr);
                    self.mcs[idx].pending.push(PendingWriteback { now, local });
                } else {
                    let (resp, _) = self.mc_access(now, addr, true);
                    if self.probe.is_enabled() {
                        self.emit_mem_record(RequestClass::Writeback, now, Time::ZERO, &resp);
                    }
                }
            }
        }
    }

    /// Applies all queued MC writebacks (multi-MC configurations only; a
    /// single-MC hierarchy never queues). The run loop calls this at drain
    /// boundaries and at the end of every execute window. Queues land in
    /// MC order, each in FIFO order, and emit the usual writeback
    /// attribution records when a probe is installed.
    pub fn drain_pending(&mut self) {
        let queued: usize = self.mcs.iter().map(|mc| mc.pending.len()).sum();
        if queued == 0 {
            return;
        }
        blackbox::record(
            blackbox::EventKind::DrainWriteback,
            queued as u64,
            self.mcs.len() as u64,
        );
        let _p = prof::scope(prof::HostPhase::DrainWriteback);
        let start = prof::enabled().then(std::time::Instant::now);
        let probe_on = self.probe.is_enabled();
        for idx in 0..self.mcs.len() {
            let mc = &mut self.mcs[idx];
            if mc.pending.is_empty() {
                continue;
            }
            let pending = std::mem::take(&mut mc.pending);
            for pw in &pending {
                let mc = &mut self.mcs[idx];
                let resp = mc.scheme.access(pw.now, pw.local, true, &mut mc.dram);
                if probe_on {
                    self.emit_mem_record(RequestClass::Writeback, pw.now, Time::ZERO, &resp);
                }
            }
            // Hand the drained queue's allocation back for reuse.
            let mut pending = pending;
            pending.clear();
            self.mcs[idx].pending = pending;
        }
        if let Some(start) = start {
            let busy = start.elapsed().as_nanos() as u64;
            prof::worker_busy(prof::WorkerKind::Drain, 0, busy, queued as u64);
        }
    }

    /// Appends the shared side's mutable state: the L3, shared statistics,
    /// each MC's scheme + DRAM + queued writebacks, and the span-sampling
    /// counters. Execution knobs (probes, `span_every`) are
    /// orchestration state the owner re-establishes, not snapshot content.
    /// Each MC's scheme name travels ahead of its state as an identity
    /// guard, so a snapshot from a different scheme mix fails loudly even
    /// if the stream happens to parse.
    pub fn write_snapshot(&self, w: &mut SnapWriter) {
        self.l3.write_snapshot(w);
        self.stats.l3_hits.write_snapshot(w);
        self.stats.l3_misses.write_snapshot(w);
        self.stats.l3_miss_latency.write_snapshot(w);
        self.stats.l3_miss_overhead.write_snapshot(w);
        w.seq(self.mcs.len());
        for mc in &self.mcs {
            w.str(mc.scheme.name());
            mc.scheme.write_snapshot(w);
            mc.dram.write_snapshot(w);
            w.seq(mc.pending.len());
            for pw in &mc.pending {
                pw.now.write_snapshot(w);
                w.u64(pw.local.raw());
            }
        }
        w.u64(self.demand_misses);
        w.u64(self.span_seq);
    }

    /// Restores state written by [`SharedMemory::write_snapshot`] onto a
    /// hierarchy freshly built from the same configuration.
    pub fn restore_snapshot(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.l3.restore_snapshot(r)?;
        self.stats.l3_hits.restore_snapshot(r)?;
        self.stats.l3_misses.restore_snapshot(r)?;
        self.stats.l3_miss_latency.restore_snapshot(r)?;
        self.stats.l3_miss_overhead.restore_snapshot(r)?;
        r.fixed_seq(self.mcs.len(), "memory-controller count")?;
        for mc in &mut self.mcs {
            if r.str()? != mc.scheme.name() {
                return Err(SnapError::Mismatch("memory-controller scheme"));
            }
            mc.scheme.restore_snapshot(r)?;
            mc.dram.restore_snapshot(r)?;
            let queued = r.seq(16)?;
            mc.pending.clear();
            for _ in 0..queued {
                let mut now = Time::ZERO;
                now.restore_snapshot(r)?;
                let local = PhysAddr::new(r.u64()?);
                mc.pending.push(PendingWriteback { now, local });
            }
        }
        self.demand_misses = r.u64()?;
        self.span_seq = r.u64()?;
        Ok(())
    }

    /// Per-component digests of the shared side, for the state-digest
    /// audit trail. Each digest hashes exactly the bytes the component
    /// contributes to [`SharedMemory::write_snapshot`] (same traversal,
    /// no second serializer), partitioned so a divergence names the
    /// subsystem that drifted: the L3 + shared stats ("cache"), the
    /// queued writeback FIFOs ("wb_fifos"), the DRAM schedulers
    /// ("dram"), the scheme directories ("scheme"), and the
    /// compression-occupancy census ("compression").
    pub fn component_digests(&self) -> SharedDigests {
        use dylect_sim_core::digest::hash_with;
        let cache = hash_with(|w| {
            self.l3.write_snapshot(w);
            self.stats.l3_hits.write_snapshot(w);
            self.stats.l3_misses.write_snapshot(w);
            self.stats.l3_miss_latency.write_snapshot(w);
            self.stats.l3_miss_overhead.write_snapshot(w);
            w.u64(self.demand_misses);
            w.u64(self.span_seq);
        });
        let wb_fifos = hash_with(|w| {
            w.seq(self.mcs.len());
            for mc in &self.mcs {
                w.seq(mc.pending.len());
                for pw in &mc.pending {
                    pw.now.write_snapshot(w);
                    w.u64(pw.local.raw());
                }
            }
        });
        let dram = hash_with(|w| {
            w.seq(self.mcs.len());
            for mc in &self.mcs {
                mc.dram.write_snapshot(w);
            }
        });
        let scheme = hash_with(|w| {
            w.seq(self.mcs.len());
            for mc in &self.mcs {
                w.str(mc.scheme.name());
                mc.scheme.write_snapshot(w);
            }
        });
        let compression = hash_with(|w| {
            let o = self.occupancy();
            w.u64(o.ml0_pages);
            w.u64(o.ml1_pages);
            w.u64(o.ml2_pages);
            w.u64(o.free_pages);
            w.u64(o.free_bytes);
        });
        SharedDigests {
            cache,
            wb_fifos,
            dram,
            scheme,
            compression,
        }
    }

    /// Test-only divergence injector for the bisect smoke: bumps the
    /// shared L3-miss counter by one, exactly the kind of single-counter
    /// drift a broken sharding change would introduce. Armed only through
    /// `DYLECT_DIGEST_PERTURB`; never called in normal operation.
    #[doc(hidden)]
    pub fn perturb_l3_miss_counter(&mut self) {
        self.stats.l3_misses.incr();
    }

    /// Emits one mem-scope attribution record for an access that entered
    /// the shared side at `start`, spent `l3` in the L3 lookup, and (for L3
    /// misses) completed with `resp`; the response breakdown's components
    /// sum to `data_ready - start - l3` by construction, so the record is
    /// conservative with a zero residual.
    fn emit_mem_record(&self, class: RequestClass, start: Time, l3: Time, resp: &McResponse) {
        let b = &resp.breakdown;
        let translation = if b.path == TranslationPath::CteMiss {
            (AccessComponent::CteFetch, b.translation)
        } else {
            (AccessComponent::CteCacheHit, b.translation)
        };
        self.probe.emit_access(&AccessRecord::new(
            AccessScope::Mem,
            class,
            b.level,
            b.path,
            start,
            resp.data_ready.saturating_sub(start),
            &[
                (AccessComponent::CacheLookup, l3),
                translation,
                (AccessComponent::Decompression, b.decompression),
                (AccessComponent::Migration, b.migration),
                (AccessComponent::DramQueue, b.dram_queue),
                (AccessComponent::DramService, b.dram_service),
            ],
        ));
    }

    /// Emits the begin/end span quartet for one sampled demand miss:
    /// the whole request window, then the translate / expand / DRAM phases
    /// partitioning it (the expand phase is omitted when the page needed no
    /// expansion). Phase boundaries are reconstructed from the response
    /// breakdown, so spans cost nothing on unsampled requests.
    fn emit_spans(&mut self, now: Time, mc: u32, addr: PhysAddr, resp: &McResponse) {
        let b = &resp.breakdown;
        let id = self.span_seq;
        self.span_seq += 1;
        let page = addr.page().index();
        let submit = now + self.l3_latency;
        let translated = submit + b.translation;
        let data_start = translated + b.decompression + b.migration;
        let probe = &self.probe;
        let emit = |phase: SpanPhase, start: Time, end: Time| {
            probe.emit_span(&SpanRecord {
                id,
                mc,
                phase,
                start,
                end,
                page,
            });
        };
        emit(SpanPhase::Request, now, resp.data_ready);
        emit(SpanPhase::Translate, submit, translated);
        if data_start > translated {
            emit(SpanPhase::Expand, translated, data_start);
        }
        emit(SpanPhase::Dram, data_start, resp.data_ready);
    }
}

impl MemoryBackend for SharedMemory {
    fn access(&mut self, now: Time, addr: PhysAddr, op: BackendOp) -> Time {
        // Sampled host timer covering the shared hierarchy and below.
        let _p = prof::sampled_scope(prof::HostPhase::MemAccess);
        let key = self.l3.key_of(addr.raw());
        match op {
            BackendOp::Writeback => {
                // L2 dirty spills install into L3; latency is off the
                // critical path.
                self.spill(now, key, true);
                now
            }
            BackendOp::Read | BackendOp::PageWalk | BackendOp::Prefetch => {
                let class = if op == BackendOp::PageWalk {
                    RequestClass::PageWalk
                } else {
                    RequestClass::Demand
                };
                if self.l3.access(key) {
                    self.stats.l3_hits.incr();
                    if self.probe.is_enabled() {
                        self.probe.emit_access(&AccessRecord::new(
                            AccessScope::Mem,
                            class,
                            MemLevel::None,
                            TranslationPath::None,
                            now,
                            self.l3_latency,
                            &[(AccessComponent::CacheLookup, self.l3_latency)],
                        ));
                    }
                    return now + self.l3_latency;
                }
                self.stats.l3_misses.incr();
                let (resp, mc) = self.mc_access(now + self.l3_latency, addr, false);
                if op == BackendOp::Read {
                    self.stats
                        .l3_miss_latency
                        .record_time_ns(resp.data_ready.saturating_sub(now));
                    self.stats.l3_miss_overhead.record_time_ns(resp.overhead);
                }
                if self.probe.is_enabled() {
                    self.emit_mem_record(class, now, self.l3_latency, &resp);
                    if op == BackendOp::Read && self.span_every > 0 {
                        self.demand_misses += 1;
                        if self.demand_misses.is_multiple_of(self.span_every) {
                            self.emit_spans(now, mc, addr, &resp);
                        }
                    }
                }
                self.spill(resp.data_ready, key, false);
                resp.data_ready
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dylect_dram::DramConfig;
    use dylect_memctl::NoCompression;

    fn shared() -> SharedMemory {
        let dram = Dram::new(DramConfig::paper(1 << 28, 8));
        let scheme = Box::new(NoCompression::new(10_000, &dram));
        SharedMemory::new(1 << 20, 16, Time::from_ns(23.9), scheme, dram)
    }

    fn shared_multi(n: usize) -> SharedMemory {
        let mcs = (0..n)
            .map(|_| {
                let dram = Dram::new(DramConfig::paper(1 << 26, 8));
                let scheme: Box<dyn MemoryScheme> = Box::new(NoCompression::new(10_000, &dram));
                (scheme, dram)
            })
            .collect();
        SharedMemory::new_multi(1 << 20, 16, Time::from_ns(23.9), mcs)
    }

    #[test]
    fn l3_hit_is_l3_latency() {
        let mut s = shared();
        let a = PhysAddr::new(0x1000);
        let t1 = s.access(Time::ZERO, a, BackendOp::Read);
        let t2 = s.access(t1, a, BackendOp::Read);
        assert_eq!(t2 - t1, Time::from_ns(23.9));
        assert_eq!(s.stats().l3_hits.get(), 1);
        assert_eq!(s.stats().l3_misses.get(), 1);
    }

    #[test]
    fn miss_goes_to_dram() {
        let mut s = shared();
        let t = s.access(Time::ZERO, PhysAddr::new(0x2000), BackendOp::Read);
        // L3 latency + cold DRAM access.
        assert!(t.as_ns() > 23.9 + 29.0);
        assert_eq!(s.dram().stats().reads.get(), 1);
        assert!(s.stats().l3_miss_latency.mean() > 29.0);
    }

    #[test]
    fn writeback_fills_dirty_and_spills() {
        let mut s = shared();
        // Fill the 1 MB L3 (16384 blocks) with dirty lines; spills follow.
        for i in 0..20_000u64 {
            s.access(Time::ZERO, PhysAddr::new(i * 64), BackendOp::Writeback);
        }
        assert!(s.dram().stats().writes.get() > 0, "dirty spills reach DRAM");
    }

    #[test]
    fn prefetch_misses_do_not_skew_latency_stats() {
        let mut s = shared();
        s.access(Time::ZERO, PhysAddr::new(0x9000), BackendOp::Prefetch);
        assert_eq!(s.stats().l3_miss_latency.count(), 0);
        assert_eq!(s.stats().l3_misses.get(), 1);
    }

    #[test]
    fn multi_mc_routes_pages_round_robin() {
        let mut s = shared_multi(4);
        // Pages 0..8 spread across the 4 MCs, two each.
        for p in 0..8u64 {
            s.access(Time::ZERO, PhysAddr::new(p * PAGE_BYTES), BackendOp::Read);
        }
        let agg = s.dram_stats();
        assert_eq!(agg.reads.get(), 8);
        for mc in &s.mcs {
            assert_eq!(mc.dram.stats().reads.get(), 2, "uneven interleave");
        }
    }

    #[test]
    fn route_preserves_page_offsets_and_is_dense() {
        let s = shared_multi(4);
        // Each MC sees its local pages densely packed from zero.
        let (mc0, a0) = s.route(PhysAddr::new(0));
        let (mc1, a1) = s.route(PhysAddr::new(PAGE_BYTES + 128));
        let (mc0b, a0b) = s.route(PhysAddr::new(4 * PAGE_BYTES + 64));
        assert_eq!((mc0, a0.raw()), (0, 0));
        assert_eq!((mc1, a1.raw()), (1, 128));
        assert_eq!((mc0b, a0b.raw()), (0, PAGE_BYTES + 64));
    }

    #[test]
    fn parallel_drain_matches_sequential_drain() {
        // Thousands of writebacks queue on four MCs; one drain must land
        // every queue in DRAM.
        let mut s = shared_multi(4);
        for i in 0..60_000u64 {
            s.access(Time::ZERO, PhysAddr::new(i * 64), BackendOp::Writeback);
        }
        assert!(s.mcs.iter().all(|mc| !mc.pending.is_empty()));
        s.drain_pending();
        assert!(
            s.mcs.iter().all(|mc| mc.pending.is_empty()),
            "drain left work queued"
        );
        assert!(
            s.dram_stats().writes.get() > 0,
            "no writebacks reached DRAM"
        );
    }

    #[test]
    fn aggregated_stats_sum_across_mcs() {
        let mut s = shared_multi(2);
        for p in 0..6u64 {
            s.access(Time::ZERO, PhysAddr::new(p * PAGE_BYTES), BackendOp::Read);
        }
        assert_eq!(s.mc_stats().requests.get(), 6);
        let occ = s.occupancy();
        assert_eq!(occ.ml1_pages, 20_000, "two baselines of 10k pages each");
        assert!(s.energy(Time::from_us(10)).total() > 0.0);
    }
}
