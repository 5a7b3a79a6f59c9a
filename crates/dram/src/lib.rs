//! A DDR4 DRAM timing and energy model.
//!
//! This crate is the simulator's stand-in for Ramulator + DRAMPower: it
//! models channels, ranks, bank groups, banks, row buffers, an FR-FCFS
//! transaction scheduler with bank fairness and a row-hit cap, rank refresh,
//! a shared data bus, and a command-count-based energy estimator.
//!
//! The memory controller submits 64 B block requests tagged with a
//! [`RequestClass`] (demand, writeback, CTE fetch, migration, …) and receives
//! completion times; the class tags let the harness reproduce the paper's
//! traffic breakdowns (Figures 22–23) and bandwidth characterization
//! (Figure 17).
//!
//! # Example
//!
//! ```
//! use dylect_dram::{Dram, DramConfig, DramOp, RequestClass};
//! use dylect_sim_core::{MachineAddr, Time};
//!
//! let mut dram = Dram::new(DramConfig::paper(1 << 30, 8));
//! let done = dram.access(
//!     Time::ZERO,
//!     MachineAddr::new(0x4000),
//!     DramOp::Read,
//!     RequestClass::Demand,
//! );
//! // Cold access: activate (tRCD) + CAS (tCL) + burst (tBL).
//! assert_eq!(done.as_ns(), 13.75 + 13.75 + 2.5);
//! ```

pub mod config;
pub mod energy;
pub mod mapping;
mod scheduler;
pub mod stats;

use dylect_sim_core::prof;
use dylect_sim_core::snap::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};
use dylect_sim_core::{MachineAddr, Time};

pub use config::{DramConfig, DramGeometry, DramTiming, SchedulerConfig};
pub use energy::{estimate_energy, EnergyBreakdown, EnergyParams};
pub use mapping::{AddressMapper, Location};
pub use scheduler::{CompletionDetail, DramOp, ReqId};
pub use stats::{DramStats, QueueStats, RequestClass, RowOutcome};

use scheduler::{ChannelScheduler, Pending};

/// The DRAM system attached to one memory controller.
#[derive(Clone, Debug)]
pub struct Dram {
    config: DramConfig,
    mapper: AddressMapper,
    channels: Vec<ChannelScheduler>,
    stats: DramStats,
    queue: QueueStats,
    in_flight_reads: u64,
    in_flight_writes: u64,
    /// Drained, not yet taken completions. Access paths take theirs right
    /// after draining, so the list stays short and is searched linearly.
    completions: Vec<(ReqId, CompletionDetail)>,
    next_id: u64,
}

impl Dram {
    /// Creates an idle DRAM system.
    pub fn new(config: DramConfig) -> Self {
        let channels = (0..config.geometry.channels)
            .map(|_| ChannelScheduler::new(&config))
            .collect();
        Dram {
            config,
            mapper: AddressMapper::new(config.geometry),
            channels,
            stats: DramStats::default(),
            queue: QueueStats::default(),
            in_flight_reads: 0,
            in_flight_writes: 0,
            completions: Vec::new(),
            next_id: 0,
        }
    }

    /// Returns the configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Returns accumulated traffic statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Returns queue-occupancy statistics (telemetry; not part of reports).
    pub fn queue_stats(&self) -> &QueueStats {
        &self.queue
    }

    /// Resets statistics (e.g. after warmup) without touching bank state.
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
        self.queue = QueueStats::default();
    }

    /// Submits a 64 B request arriving at `arrival`; call [`Dram::drain`]
    /// to schedule and [`Dram::take_completion`] to collect its finish time.
    ///
    /// Multiple requests submitted before a `drain` are scheduled together
    /// under FR-FCFS, which is how batched transfers (page migrations, the
    /// parallel pre-gathered + unified CTE fetches of DyLeCT) get reordered
    /// for row-buffer locality.
    pub fn submit(
        &mut self,
        arrival: Time,
        addr: MachineAddr,
        op: DramOp,
        class: RequestClass,
    ) -> ReqId {
        let id = ReqId(self.next_id);
        self.next_id += 1;
        match op {
            DramOp::Read => {
                self.in_flight_reads += 1;
                self.queue.on_submit_read(self.in_flight_reads);
            }
            DramOp::Write => {
                self.in_flight_writes += 1;
                self.queue.on_submit_write(self.in_flight_writes);
            }
        }
        let loc = self.mapper.decode(addr);
        self.channels[loc.channel as usize].submit(Pending {
            id,
            arrival,
            loc,
            op,
            class,
        });
        id
    }

    /// Schedules all pending requests to completion.
    pub fn drain(&mut self) {
        self.in_flight_reads = 0;
        self.in_flight_writes = 0;
        for ch in &mut self.channels {
            ch.drain(&mut self.stats, &mut self.completions);
        }
    }

    /// Takes the completion time of a drained request.
    ///
    /// Returns `None` if the request was never submitted, not yet drained,
    /// or already taken.
    pub fn take_completion(&mut self, id: ReqId) -> Option<Time> {
        self.take_completion_detail(id).map(|d| d.done)
    }

    /// Takes the full completion detail (done time plus queue/service
    /// split) of a drained request — the attribution layer's view of a
    /// demand access.
    pub fn take_completion_detail(&mut self, id: ReqId) -> Option<CompletionDetail> {
        let pos = self.completions.iter().position(|&(i, _)| i == id)?;
        Some(self.completions.swap_remove(pos).1)
    }

    /// Serializes timing/scheduler state. Call only at a quiescent point:
    /// every submitted request drained and every completion consumed (the
    /// simulator's window boundaries guarantee this; access paths pair each
    /// submit with a take).
    pub fn write_snapshot(&self, w: &mut SnapWriter) {
        debug_assert!(
            self.completions.is_empty(),
            "DRAM snapshot requires all completions consumed"
        );
        w.seq(self.channels.len());
        for ch in &self.channels {
            ch.write_snapshot(w);
        }
        self.stats.write_snapshot(w);
        self.queue.write_snapshot(w);
        w.u64(self.next_id);
    }

    /// Restores timing/scheduler state written by [`Dram::write_snapshot`]
    /// onto a same-configuration instance.
    pub fn restore_snapshot(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.fixed_seq(self.channels.len(), "channel count")?;
        for ch in &mut self.channels {
            ch.restore_snapshot(r)?;
        }
        self.stats.restore_snapshot(r)?;
        self.queue.restore_snapshot(r)?;
        self.next_id = r.u64()?;
        self.in_flight_reads = 0;
        self.in_flight_writes = 0;
        self.completions.clear();
        Ok(())
    }

    /// Convenience: submit + drain + take for a single request.
    pub fn access(
        &mut self,
        arrival: Time,
        addr: MachineAddr,
        op: DramOp,
        class: RequestClass,
    ) -> Time {
        self.access_detailed(arrival, addr, op, class).done
    }

    /// Like [`Dram::access`], but returns the queue/service split along
    /// with the completion time. Schemes use this for the demand block so
    /// the attribution layer can separate DRAM queueing from service.
    pub fn access_detailed(
        &mut self,
        arrival: Time,
        addr: MachineAddr,
        op: DramOp,
        class: RequestClass,
    ) -> CompletionDetail {
        // Sampled host timer over submit + scheduler drain.
        let _p = prof::sampled_scope(prof::HostPhase::DramAccess);
        let id = self.submit(arrival, addr, op, class);
        self.drain();
        self.take_completion_detail(id).expect("just drained")
    }

    /// Submits a batch, drains, and returns the latest completion time.
    /// Useful for multi-block transfers like page migrations.
    ///
    /// Returns `arrival` unchanged for an empty batch.
    pub fn access_batch(
        &mut self,
        arrival: Time,
        addrs: impl IntoIterator<Item = (MachineAddr, DramOp)>,
        class: RequestClass,
    ) -> Time {
        let _p = prof::sampled_scope(prof::HostPhase::DramAccess);
        // Ids are handed out in order, so this batch owns every id from
        // `first` on; earlier completions stay for their own takers.
        let first = self.next_id;
        for (a, op) in addrs {
            self.submit(arrival, a, op, class);
        }
        if self.next_id == first {
            return arrival;
        }
        self.drain();
        let mut done = Time::ZERO;
        self.completions.retain(|&(id, d)| {
            let own = id.0 >= first;
            if own {
                done = done.max(d.done);
            }
            !own
        });
        done
    }

    /// Estimates energy consumed by `elapsed` simulated time with the
    /// default DDR4 parameters.
    pub fn energy(&self, elapsed: Time) -> EnergyBreakdown {
        estimate_energy(
            &EnergyParams::default(),
            &self.stats,
            self.config.geometry.ranks * self.config.geometry.channels,
            elapsed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dylect_sim_core::BLOCK_BYTES;

    fn dram() -> Dram {
        Dram::new(DramConfig::paper(1 << 30, 8))
    }

    #[test]
    fn cold_read_latency() {
        let mut d = dram();
        let t = d.access(
            Time::ZERO,
            MachineAddr::new(0),
            DramOp::Read,
            RequestClass::Demand,
        );
        // ACT(tRCD) + CAS(tCL) + burst(tBL).
        assert_eq!(t.as_ns(), 13.75 + 13.75 + 2.5);
        assert_eq!(d.stats().row_misses.get(), 1);
    }

    #[test]
    fn row_hit_is_faster() {
        let mut d = dram();
        let t0 = d.access(
            Time::ZERO,
            MachineAddr::new(0),
            DramOp::Read,
            RequestClass::Demand,
        );
        let t1 = d.access(
            t0,
            MachineAddr::new(BLOCK_BYTES),
            DramOp::Read,
            RequestClass::Demand,
        );
        // Same row: only CAS + burst.
        assert_eq!((t1 - t0).as_ns(), 13.75 + 2.5);
        assert_eq!(d.stats().row_hits.get(), 1);
    }

    #[test]
    fn row_conflict_is_slowest() {
        let mut d = dram();
        // Same bank, different rows: with Ro:Ra:Ba:Co:Ch mapping, two
        // addresses one full "rank+bank sweep" apart share a bank.
        let g = d.config().geometry;
        let stride = g.row_bytes * g.banks_total() as u64 * g.ranks as u64;
        let t0 = d.access(
            Time::ZERO,
            MachineAddr::new(0),
            DramOp::Read,
            RequestClass::Demand,
        );
        let t1 = d.access(
            t0,
            MachineAddr::new(stride),
            DramOp::Read,
            RequestClass::Demand,
        );
        // Conflict: wait tRAS from first ACT, then PRE + ACT + CAS + burst.
        let t_first_act_to_pre = Time::from_ns(32.0); // tRAS
        let expected = t_first_act_to_pre + Time::from_ns(13.75 + 13.75 + 13.75 + 2.5);
        assert_eq!(t1, expected);
        assert_eq!(d.stats().row_conflicts.get(), 1);
    }

    #[test]
    fn bank_parallelism_overlaps() {
        let mut d = dram();
        let g = d.config().geometry;
        // Two requests to different banks at t=0 overlap except on the bus.
        let a = d.submit(
            Time::ZERO,
            MachineAddr::new(0),
            DramOp::Read,
            RequestClass::Demand,
        );
        let b = d.submit(
            Time::ZERO,
            MachineAddr::new(g.row_bytes), // next bank
            DramOp::Read,
            RequestClass::Demand,
        );
        d.drain();
        let ta = d.take_completion(a).unwrap();
        let tb = d.take_completion(b).unwrap();
        let first = ta.min(tb);
        let second = ta.max(tb);
        // Second is delayed only by one burst slot, not a full access.
        assert_eq!((second - first).as_ns(), 2.5);
    }

    #[test]
    fn same_bank_requests_serialize_on_cas() {
        let mut d = dram();
        let a = d.submit(
            Time::ZERO,
            MachineAddr::new(0),
            DramOp::Read,
            RequestClass::Demand,
        );
        let b = d.submit(
            Time::ZERO,
            MachineAddr::new(BLOCK_BYTES),
            DramOp::Read,
            RequestClass::Demand,
        );
        d.drain();
        let ta = d.take_completion(a).unwrap();
        let tb = d.take_completion(b).unwrap();
        assert_eq!((tb.max(ta) - ta.min(tb)).as_ns(), 2.5);
        assert_eq!(d.stats().row_hits.get(), 1);
    }

    #[test]
    fn fr_fcfs_prefers_row_hits() {
        let mut d = dram();
        let g = d.config().geometry;
        let conflict_stride = g.row_bytes * g.banks_total() as u64 * g.ranks as u64;
        // Open row 0 of bank 0.
        d.access(
            Time::ZERO,
            MachineAddr::new(0),
            DramOp::Read,
            RequestClass::Demand,
        );
        // Two requests arrive together; the first-submitted one conflicts
        // (row 1 of bank 0), the second hits (row 0). FR-FCFS serves the
        // hit first despite queue order.
        let older = d.submit(
            Time::from_ns(100.0),
            MachineAddr::new(conflict_stride),
            DramOp::Read,
            RequestClass::Demand,
        );
        let younger = d.submit(
            Time::from_ns(100.0),
            MachineAddr::new(BLOCK_BYTES),
            DramOp::Read,
            RequestClass::Demand,
        );
        d.drain();
        let t_old = d.take_completion(older).unwrap();
        let t_young = d.take_completion(younger).unwrap();
        assert!(t_young < t_old, "row hit should be served first");
    }

    #[test]
    fn row_hit_cap_bounds_starvation() {
        let mut d = dram();
        let g = d.config().geometry;
        let conflict_stride = g.row_bytes * g.banks_total() as u64 * g.ranks as u64;
        // Open row 0.
        d.access(
            Time::ZERO,
            MachineAddr::new(0),
            DramOp::Read,
            RequestClass::Demand,
        );
        // One conflicting request plus a burst of row hits, all arriving
        // together; the conflict was submitted first so it is "oldest".
        let old = d.submit(
            Time::from_ns(200.0),
            MachineAddr::new(conflict_stride),
            DramOp::Read,
            RequestClass::Demand,
        );
        let hits: Vec<ReqId> = (1..20u64)
            .map(|i| {
                d.submit(
                    Time::from_ns(200.0),
                    MachineAddr::new(i * BLOCK_BYTES),
                    DramOp::Read,
                    RequestClass::Demand,
                )
            })
            .collect();
        d.drain();
        let t_old = d.take_completion(old).unwrap();
        let hit_times: Vec<Time> = hits
            .into_iter()
            .map(|h| d.take_completion(h).unwrap())
            .collect();
        let served_before_old = hit_times.iter().filter(|&&t| t < t_old).count();
        // The cap (4) limits how many younger hits can bypass the old
        // request.
        assert!(
            served_before_old <= d.config().scheduler.row_hit_cap as usize,
            "{served_before_old} hits bypassed the old request"
        );
        assert!(served_before_old >= 1, "some reordering should happen");
    }

    #[test]
    fn refresh_blocks_rank() {
        let mut d = dram();
        // Land exactly inside the first refresh window (tREFI = 7800 ns).
        let t = d.access(
            Time::from_ns(7800.0),
            MachineAddr::new(0),
            DramOp::Read,
            RequestClass::Demand,
        );
        // Must wait out tRFC (350 ns) then do a cold access.
        assert_eq!(t.as_ns(), 7800.0 + 350.0 + 13.75 + 13.75 + 2.5);
        assert!(d.stats().refreshes.get() >= 1);
    }

    #[test]
    fn bandwidth_saturates_at_bus_rate() {
        let mut d = dram();
        // Stream 1000 sequential blocks; steady-state throughput should be
        // one 64 B burst per tBL (2.5 ns) = 25.6 GB/s.
        let ids: Vec<ReqId> = (0..1000u64)
            .map(|i| {
                d.submit(
                    Time::ZERO,
                    MachineAddr::new(i * BLOCK_BYTES),
                    DramOp::Read,
                    RequestClass::Demand,
                )
            })
            .collect();
        d.drain();
        let last = ids
            .into_iter()
            .map(|id| d.take_completion(id).unwrap())
            .max()
            .unwrap();
        let gb_per_s = (1000.0 * 64.0) / last.as_secs() / 1e9;
        assert!(
            (20.0..=25.7).contains(&gb_per_s),
            "throughput {gb_per_s} GB/s out of range"
        );
    }

    #[test]
    fn writes_complete_and_count() {
        let mut d = dram();
        let t = d.access(
            Time::ZERO,
            MachineAddr::new(0),
            DramOp::Write,
            RequestClass::Writeback,
        );
        assert!(t > Time::ZERO);
        assert_eq!(d.stats().writes.get(), 1);
        assert_eq!(d.stats().class_blocks(RequestClass::Writeback), 1);
    }

    #[test]
    fn write_recovery_delays_conflict() {
        let mut d = dram();
        let g = d.config().geometry;
        let conflict_stride = g.row_bytes * g.banks_total() as u64 * g.ranks as u64;
        let t0 = d.access(
            Time::ZERO,
            MachineAddr::new(0),
            DramOp::Write,
            RequestClass::Writeback,
        );
        let t1 = d.access(
            t0,
            MachineAddr::new(conflict_stride),
            DramOp::Read,
            RequestClass::Demand,
        );
        // PRE must wait tWR after the write burst: done + tWR + tRP + tRCD +
        // tCL + tBL.
        let expected = t0 + Time::from_ns(15.0 + 13.75 + 13.75 + 13.75 + 2.5);
        assert_eq!(t1, expected);
    }

    #[test]
    fn batch_returns_latest_completion() {
        let mut d = dram();
        let addrs = (0..64u64).map(|i| (MachineAddr::new(i * BLOCK_BYTES), DramOp::Read));
        let done = d.access_batch(Time::ZERO, addrs, RequestClass::Migration);
        // 64 sequential blocks: one ACT then row hits at bus rate.
        let min_time = Time::from_ns(13.75 + 13.75 + 64.0 * 2.5);
        assert!(done >= min_time);
        assert_eq!(d.stats().class_blocks(RequestClass::Migration), 64);
    }

    #[test]
    fn empty_batch_is_identity() {
        let mut d = dram();
        let t = d.access_batch(Time::from_ns(5.0), std::iter::empty(), RequestClass::Demand);
        assert_eq!(t, Time::from_ns(5.0));
    }

    #[test]
    fn take_completion_is_once() {
        let mut d = dram();
        let id = d.submit(
            Time::ZERO,
            MachineAddr::new(0),
            DramOp::Read,
            RequestClass::Demand,
        );
        assert_eq!(d.take_completion(id), None, "not drained yet");
        d.drain();
        assert!(d.take_completion(id).is_some());
        assert_eq!(d.take_completion(id), None, "already taken");
    }

    #[test]
    fn energy_reflects_traffic_and_time() {
        let mut d = dram();
        for i in 0..100u64 {
            d.access(
                Time::ZERO,
                MachineAddr::new(i * BLOCK_BYTES),
                DramOp::Read,
                RequestClass::Demand,
            );
        }
        let e = d.energy(Time::from_us(10));
        assert!(e.read > 0.0);
        assert!(e.background > 0.0);
        assert!(e.total() > e.read);
    }

    #[test]
    fn arrival_in_future_is_respected() {
        let mut d = dram();
        let t = d.access(
            Time::from_us(1),
            MachineAddr::new(0),
            DramOp::Read,
            RequestClass::Demand,
        );
        assert!(t >= Time::from_us(1) + Time::from_ns(30.0));
    }

    #[test]
    fn completion_detail_is_conservative() {
        // queue + service must equal done - arrival, for every request in
        // a contended batch (some wait on the bus, some do not).
        let mut d = dram();
        let ids: Vec<ReqId> = (0..32u64)
            .map(|i| {
                d.submit(
                    Time::from_ns(10.0),
                    MachineAddr::new(i * BLOCK_BYTES),
                    DramOp::Read,
                    RequestClass::Demand,
                )
            })
            .collect();
        d.drain();
        let mut queued = 0u64;
        for id in ids {
            let det = d.take_completion_detail(id).unwrap();
            assert_eq!(
                det.queue + det.service,
                det.done - Time::from_ns(10.0),
                "queue/service split must be conservative"
            );
            assert!(det.service > Time::ZERO);
            if det.queue > Time::ZERO {
                queued += 1;
            }
        }
        assert!(queued > 0, "a contended batch must show queueing");
    }

    #[test]
    fn queue_stats_split_reads_and_writes() {
        let mut d = dram();
        for i in 0..4u64 {
            d.submit(
                Time::ZERO,
                MachineAddr::new(i * BLOCK_BYTES),
                DramOp::Read,
                RequestClass::Demand,
            );
        }
        for i in 0..2u64 {
            d.submit(
                Time::ZERO,
                MachineAddr::new((100 + i) * BLOCK_BYTES),
                DramOp::Write,
                RequestClass::Writeback,
            );
        }
        d.drain();
        let q = d.queue_stats();
        assert_eq!(q.read_submits, 4);
        assert_eq!(q.write_submits, 2);
        assert_eq!(q.read_max_depth, 4);
        assert_eq!(q.write_max_depth, 2);
        assert_eq!(q.mean_read_depth(), 2.5); // (1+2+3+4)/4
        assert_eq!(q.mean_write_depth(), 1.5); // (1+2)/2

        let mut merged = QueueStats::default();
        merged.merge(q);
        merged.merge(q);
        assert_eq!(merged.read_submits, 8);
        assert_eq!(merged.write_max_depth, 2);
    }
}
