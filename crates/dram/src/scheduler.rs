//! FR-FCFS transaction scheduling with bank-state timing.
//!
//! Requests are submitted with an arrival time and scheduled in *batches*
//! ([`ChannelScheduler::drain`]): within a batch the scheduler repeatedly
//! picks, among requests that have arrived, the oldest row-buffer hit (up to
//! the configured per-bank hit cap, for fairness) or, failing that, the
//! oldest request overall — the "FR-FCFS policy with bank fairness and row
//! buffer hit cap" from the paper's Table 3. Bank-level parallelism emerges
//! from per-bank ready times; the shared data bus serializes bursts; rank
//! refresh windows block their rank for `tRFC` every `tREFI`.
//!
//! A batch whose requests all share one arrival, op and row — every page or
//! span transfer — leaves FR-FCFS no choice to make, so it is issued in one
//! pass in exactly the order the general loop would pick
//! ([`ChannelScheduler::drain`] documents why).

use dylect_sim_core::snap::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};
use dylect_sim_core::Time;

use crate::config::{DramConfig, DramTiming};
use crate::mapping::Location;
use crate::stats::{DramStats, RequestClass, RowOutcome};

/// Identifier of a submitted request, unique per [`crate::Dram`] instance.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReqId(pub(crate) u64);

/// Read or write.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DramOp {
    /// A 64 B read burst.
    Read,
    /// A 64 B write burst.
    Write,
}

/// How one completed request spent its time: waiting on contention
/// (`queue`) versus being served by the bank/bus (`service`). `service` is
/// the *unloaded* latency of the request's command chain for its row
/// outcome (hit: CAS + burst; miss: + activate; conflict: + precharge);
/// everything else — bank-ready waits, shared-bus serialization, refresh
/// windows — is queueing delay. The split is conservative by construction:
/// `queue + service == done - arrival`. Telemetry-only — never serialized
/// into run reports.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CompletionDetail {
    /// Time of the last data beat.
    pub done: Time,
    /// Contention share: arrival → done minus the unloaded service time.
    pub queue: Time,
    /// Unloaded bank access plus data-bus transfer.
    pub service: Time,
}

#[derive(Copy, Clone, Debug)]
pub(crate) struct Pending {
    pub id: ReqId,
    pub arrival: Time,
    pub loc: Location,
    pub op: DramOp,
    pub class: RequestClass,
}

#[derive(Copy, Clone, Debug)]
struct BankState {
    open_row: Option<u64>,
    /// When the currently open row was activated (for tRAS).
    act_time: Time,
    /// Earliest time the next CAS may issue to the open row.
    ready_cas: Time,
    /// Earliest time a precharge may issue (write recovery etc.).
    ready_pre: Time,
    /// Earliest time an activate may issue (after precharge completes).
    ready_act: Time,
}

impl BankState {
    fn new() -> Self {
        BankState {
            open_row: None,
            act_time: Time::ZERO,
            ready_cas: Time::ZERO,
            ready_pre: Time::ZERO,
            ready_act: Time::ZERO,
        }
    }
}

/// One channel's scheduler state.
#[derive(Clone, Debug)]
pub(crate) struct ChannelScheduler {
    timing: DramTiming,
    row_hit_cap: u32,
    banks: Vec<BankState>,
    hit_streak: Vec<u32>,
    /// Next scheduled refresh start per rank.
    next_refresh: Vec<Time>,
    banks_per_rank: u32,
    bus_free: Time,
    sched_time: Time,
    pending: Vec<Pending>,
}

impl ChannelScheduler {
    pub fn new(cfg: &DramConfig) -> Self {
        let banks_per_rank = cfg.geometry.banks_total();
        let total_banks = (banks_per_rank * cfg.geometry.ranks) as usize;
        ChannelScheduler {
            timing: cfg.timing,
            row_hit_cap: cfg.scheduler.row_hit_cap,
            banks: vec![BankState::new(); total_banks],
            hit_streak: vec![0; total_banks],
            next_refresh: vec![cfg.timing.t_refi; cfg.geometry.ranks as usize],
            banks_per_rank,
            bus_free: Time::ZERO,
            sched_time: Time::ZERO,
            pending: Vec::new(),
        }
    }

    pub fn submit(&mut self, req: Pending) {
        self.pending.push(req);
    }

    fn bank_index(&self, loc: &Location) -> usize {
        (loc.rank * self.banks_per_rank + loc.bank) as usize
    }

    /// Advances the rank's refresh schedule up to `t`, counting elapsed
    /// refreshes, and returns the earliest time >= `t` outside any refresh
    /// window.
    fn refresh_adjust(&mut self, rank: u32, t: Time, stats: &mut DramStats) -> Time {
        let next = &mut self.next_refresh[rank as usize];
        let mut t = t;
        // Retire refresh windows that completed before t.
        while *next + self.timing.t_rfc <= t {
            *next += self.timing.t_refi;
            stats.refreshes.incr();
        }
        // If t falls inside the current window, wait it out.
        if t >= *next {
            t = *next + self.timing.t_rfc;
            *next += self.timing.t_refi;
            stats.refreshes.incr();
        }
        t
    }

    /// Selects the index (into `pending`) of the next request to issue among
    /// those that arrived by `t`: FR-FCFS with a row-hit cap, and — as in
    /// real controllers with buffered writes — reads take priority over
    /// writes.
    fn select(&self, t: Time) -> Option<usize> {
        let mut best_hit_rd: Option<(Time, usize)> = None;
        let mut best_rd: Option<(Time, usize)> = None;
        let mut best_hit_wr: Option<(Time, usize)> = None;
        let mut best_wr: Option<(Time, usize)> = None;
        for (i, p) in self.pending.iter().enumerate() {
            if p.arrival > t {
                continue;
            }
            let bank = self.bank_index(&p.loc);
            let is_hit = self.banks[bank].open_row == Some(p.loc.row)
                && self.hit_streak[bank] < self.row_hit_cap;
            let (best_hit, best_any) = match p.op {
                DramOp::Read => (&mut best_hit_rd, &mut best_rd),
                DramOp::Write => (&mut best_hit_wr, &mut best_wr),
            };
            if is_hit && best_hit.is_none_or(|(a, _)| p.arrival < a) {
                *best_hit = Some((p.arrival, i));
            }
            if best_any.is_none_or(|(a, _)| p.arrival < a) {
                *best_any = Some((p.arrival, i));
            }
        }
        best_hit_rd
            .or(best_rd)
            .or(best_hit_wr)
            .or(best_wr)
            .map(|(_, i)| i)
    }

    /// Schedules every pending request to completion, appending one
    /// `(id, detail)` per request to `out`.
    ///
    /// When every pending request has the same arrival, op and
    /// rank/bank/row, FR-FCFS has nothing to choose: all candidates fall in
    /// one hit/read category with equal arrivals, so `select` always picks
    /// index 0, `swap_remove(0)` makes the issue order 0, N−1, N−2, …, 1,
    /// and `t = max(sched_time, arrival)` stays fixed. That batch is issued
    /// in that order in one pass, with the same `issue` calls and so the
    /// same bank, bus, refresh and statistics state as
    /// [`ChannelScheduler::drain_fr_fcfs`], which handles everything else.
    pub fn drain(&mut self, stats: &mut DramStats, out: &mut Vec<(ReqId, CompletionDetail)>) {
        let Some(&first) = self.pending.first() else {
            return;
        };
        let single_row = self.pending.iter().all(|p| {
            p.arrival == first.arrival
                && p.op == first.op
                && p.loc.rank == first.loc.rank
                && p.loc.bank == first.loc.bank
                && p.loc.row == first.loc.row
        });
        if !single_row {
            self.drain_fr_fcfs(stats, out);
            return;
        }
        let t = self.sched_time.max(first.arrival);
        out.push((first.id, self.issue(t, &first, stats)));
        for i in (1..self.pending.len()).rev() {
            let req = self.pending[i];
            out.push((req.id, self.issue(t, &req, stats)));
        }
        self.pending.clear();
        self.sched_time = t;
    }

    /// The general FR-FCFS loop: each pick rescans the pending queue.
    fn drain_fr_fcfs(&mut self, stats: &mut DramStats, out: &mut Vec<(ReqId, CompletionDetail)>) {
        while !self.pending.is_empty() {
            let min_arrival = self
                .pending
                .iter()
                .map(|p| p.arrival)
                .min()
                .expect("non-empty pending");
            let t = self.sched_time.max(min_arrival);
            let idx = self.select(t).expect("candidate exists at or after t");
            let req = self.pending.swap_remove(idx);
            let detail = self.issue(t, &req, stats);
            out.push((req.id, detail));
            self.sched_time = t;
        }
    }

    /// Issues one request no earlier than `t`; returns its completion
    /// detail (done time plus the queue/service split) and updates
    /// bank/bus state and statistics.
    fn issue(&mut self, t: Time, req: &Pending, stats: &mut DramStats) -> CompletionDetail {
        let tm = self.timing;
        let t = t.max(req.arrival);
        let t = self.refresh_adjust(req.loc.rank, t, stats);
        let bank_idx = self.bank_index(&req.loc);
        let bank = &mut self.banks[bank_idx];

        let (cas_ready, outcome) = match bank.open_row {
            Some(row) if row == req.loc.row => (t.max(bank.ready_cas), RowOutcome::Hit),
            Some(_) => {
                // Conflict: precharge, then activate the new row.
                let pre_at = t.max(bank.ready_pre).max(bank.act_time + tm.t_ras);
                let act_at = (pre_at + tm.t_rp).max(bank.ready_act);
                bank.act_time = act_at;
                stats.activates.incr();
                (act_at + tm.t_rcd, RowOutcome::Conflict)
            }
            None => {
                // Closed bank: activate.
                let act_at = t.max(bank.ready_act);
                bank.act_time = act_at;
                stats.activates.incr();
                (act_at + tm.t_rcd, RowOutcome::Miss)
            }
        };
        bank.open_row = Some(req.loc.row);

        let cas_to_data = match req.op {
            DramOp::Read => tm.t_cl,
            DramOp::Write => tm.t_cwl,
        };
        // The data burst needs the shared bus; if the bus is busy the CAS is
        // effectively delayed.
        let data_start = (cas_ready + cas_to_data).max(self.bus_free);
        let cas_at = data_start - cas_to_data;
        let done = data_start + tm.t_bl;
        self.bus_free = done;

        bank.ready_cas = cas_at + tm.t_bl;
        bank.ready_pre = match req.op {
            DramOp::Read => done,
            DramOp::Write => done + tm.t_wr,
        }
        .max(bank.act_time + tm.t_ras);
        bank.ready_act = bank.ready_pre + tm.t_rp;

        // Fairness bookkeeping.
        match outcome {
            RowOutcome::Hit => self.hit_streak[bank_idx] += 1,
            _ => self.hit_streak[bank_idx] = 0,
        }

        stats.record(req.op, req.class, outcome, req.arrival, done);
        stats.bus_busy += tm.t_bl;
        let service = match outcome {
            RowOutcome::Hit => cas_to_data + tm.t_bl,
            RowOutcome::Miss => tm.t_rcd + cas_to_data + tm.t_bl,
            RowOutcome::Conflict => tm.t_rp + tm.t_rcd + cas_to_data + tm.t_bl,
        };
        CompletionDetail {
            done,
            queue: (done - req.arrival) - service,
            service,
        }
    }
}

// Snapshots are taken at window boundaries, where every submitted request
// has been drained — so `pending` is not serialized, only asserted empty.
// Timing/geometry (`timing`, `row_hit_cap`, `banks_per_rank`) is
// construction state.
impl Snapshot for ChannelScheduler {
    fn write_snapshot(&self, w: &mut SnapWriter) {
        debug_assert!(
            self.pending.is_empty(),
            "channel snapshot requires a drained scheduler"
        );
        w.seq(self.banks.len());
        for b in &self.banks {
            match b.open_row {
                Some(row) => {
                    w.bool(true);
                    w.u64(row);
                }
                None => w.bool(false),
            }
            b.act_time.write_snapshot(w);
            b.ready_cas.write_snapshot(w);
            b.ready_pre.write_snapshot(w);
            b.ready_act.write_snapshot(w);
        }
        for &s in &self.hit_streak {
            w.u32(s);
        }
        w.seq(self.next_refresh.len());
        for t in &self.next_refresh {
            t.write_snapshot(w);
        }
        self.bus_free.write_snapshot(w);
        self.sched_time.write_snapshot(w);
    }
}

impl Restore for ChannelScheduler {
    fn restore_snapshot(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.fixed_seq(self.banks.len(), "bank count")?;
        for b in &mut self.banks {
            b.open_row = if r.bool()? { Some(r.u64()?) } else { None };
            b.act_time.restore_snapshot(r)?;
            b.ready_cas.restore_snapshot(r)?;
            b.ready_pre.restore_snapshot(r)?;
            b.ready_act.restore_snapshot(r)?;
        }
        for s in &mut self.hit_streak {
            *s = r.u32()?;
        }
        r.fixed_seq(self.next_refresh.len(), "rank count")?;
        for t in &mut self.next_refresh {
            t.restore_snapshot(r)?;
        }
        self.bus_free.restore_snapshot(r)?;
        self.sched_time.restore_snapshot(r)?;
        self.pending.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dylect_sim_core::check::{forall, Gen};
    use dylect_sim_core::prop_ensure_eq;

    const RANKS: u64 = 2;
    const BANKS: u64 = 2;
    const ROWS: u64 = 3;
    /// Long enough to cross several refresh windows (tREFI = 7.8 µs).
    const SPAN_PS: u64 = 40_000_000;

    fn request(g: &mut Gen, id: u64, arrival: Time, op: DramOp, loc: Location) -> Pending {
        let class = if g.bool() {
            RequestClass::Demand
        } else {
            RequestClass::Migration
        };
        Pending {
            id: ReqId(id),
            arrival,
            loc,
            op,
            class,
        }
    }

    fn random_op(g: &mut Gen) -> DramOp {
        if g.bool() {
            DramOp::Read
        } else {
            DramOp::Write
        }
    }

    fn random_loc(g: &mut Gen) -> Location {
        Location {
            channel: 0,
            rank: g.u64_below(RANKS) as u32,
            bank: g.u64_below(BANKS) as u32,
            row: g.u64_below(ROWS),
            column: g.u64_below(128),
        }
    }

    fn random_time(g: &mut Gen) -> Time {
        Time::from_ps(g.u64_below(SPAN_PS))
    }

    /// A batch of 1–128 requests: a single-row run, a single-row run with
    /// one request off in one field, or a fully mixed batch.
    fn random_batch(g: &mut Gen, next_id: &mut u64) -> Vec<Pending> {
        let n = g.range(1, 128);
        let arrival = random_time(g);
        let op = random_op(g);
        let loc = random_loc(g);
        let shape = g.u64_below(3);
        let mut batch: Vec<Pending> = (0..n)
            .map(|_| {
                *next_id += 1;
                if shape == 2 {
                    let (arrival, op, loc) = (random_time(g), random_op(g), random_loc(g));
                    request(g, *next_id, arrival, op, loc)
                } else {
                    let loc = Location {
                        column: g.u64_below(128),
                        ..loc
                    };
                    request(g, *next_id, arrival, op, loc)
                }
            })
            .collect();
        if shape == 1 {
            let i = g.u64_below(n) as usize;
            let p = &mut batch[i];
            match g.u64_below(5) {
                0 => p.arrival += Time::from_ps(g.range(1, 20_000)),
                1 => {
                    p.op = match p.op {
                        DramOp::Read => DramOp::Write,
                        DramOp::Write => DramOp::Read,
                    }
                }
                2 => p.loc.rank = (p.loc.rank + 1) % RANKS as u32,
                3 => p.loc.bank = (p.loc.bank + 1) % BANKS as u32,
                _ => p.loc.row = (p.loc.row + 1) % ROWS,
            }
        }
        batch
    }

    fn snapshot_bytes(s: &impl Snapshot) -> Vec<u8> {
        let mut w = SnapWriter::new();
        s.write_snapshot(&mut w);
        w.into_bytes()
    }

    #[test]
    fn one_pass_drain_matches_the_fr_fcfs_loop() {
        let cfg = DramConfig::paper(1 << 30, RANKS as u32);
        forall("one-pass drain == FR-FCFS loop", 256, |g| {
            // Pre-warm: open rows, build hit streaks, advance the bus and
            // the refresh schedule through the general loop.
            let mut warm = ChannelScheduler::new(&cfg);
            let mut stats = DramStats::default();
            let mut sink = Vec::new();
            let mut next_id = 0;
            for _ in 0..g.u64_below(6) {
                for p in random_batch(g, &mut next_id) {
                    warm.submit(p);
                }
                warm.drain_fr_fcfs(&mut stats, &mut sink);
            }
            let batch = random_batch(g, &mut next_id);
            let (mut fast, mut slow) = (warm.clone(), warm);
            let (mut fast_stats, mut slow_stats) = (stats.clone(), stats);
            for &p in &batch {
                fast.submit(p);
                slow.submit(p);
            }
            let (mut fast_out, mut slow_out) = (Vec::new(), Vec::new());
            fast.drain(&mut fast_stats, &mut fast_out);
            slow.drain_fr_fcfs(&mut slow_stats, &mut slow_out);
            prop_ensure_eq!(fast_out, slow_out);
            prop_ensure_eq!(fast_stats, slow_stats);
            prop_ensure_eq!(snapshot_bytes(&fast_stats), snapshot_bytes(&slow_stats));
            prop_ensure_eq!(snapshot_bytes(&fast), snapshot_bytes(&slow));
            Ok(())
        });
    }
}
