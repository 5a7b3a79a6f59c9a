//! The outside-in trace: a delegating `MemoryScheme` that times every
//! scheme access, an assembly of the system around it through
//! `System::from_parts`, chunked `execute` timing, and a replay of the
//! workload generators. Nothing here reaches inside the simulator; every
//! number comes from timing calls into its public API.

use std::cell::RefCell;
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use dylect_core::{Dylect, DylectConfig};
use dylect_cpu::PageTableLayout;
use dylect_dram::{Dram, DramConfig};
use dylect_memctl::{CteCacheGeometry, McResponse, McStats, MemoryScheme, Occupancy};
use dylect_sim::{RunReport, SchemeKind, SharedMemory, System, SystemConfig};
use dylect_sim_core::probe::ProbeHandle;
use dylect_sim_core::snap::{SnapError, SnapReader, SnapWriter};
use dylect_sim_core::trace::OpBatch;
use dylect_sim_core::{PhysAddr, Time};
use dylect_tmcc::{Tmcc, TmccConfig};
use dylect_workloads::{BenchmarkSpec, SyntheticWorkload};

use crate::cells::Cell;

/// Ops per timed `execute` call. A multiple of the simulator's 256-op
/// drain batch, so chunking leaves the drain cadence (and every report
/// byte) unchanged.
const CHUNK_OPS: u64 = 256 * 256;

/// Every this many scheme accesses one is kept as a span; all are counted.
const ACCESS_SAMPLE_EVERY: u64 = 4096;

/// The simulator's drain batch; generation replay on the fast path fills
/// batches of this size.
const BATCH_OPS: u64 = 256;

/// Calls, host time and DRAM requests of one access direction.
#[derive(Copy, Clone, Debug, Default)]
pub struct AccessTally {
    pub calls: u64,
    pub ns: u64,
    pub dram_reqs: u64,
}

impl AccessTally {
    fn add(&mut self, ns: u64, dram_reqs: u64) {
        self.calls += 1;
        self.ns += ns;
        self.dram_reqs += dram_reqs;
    }
}

/// One recorded span: `parent` is 0 for a root.
#[derive(Debug)]
struct Span {
    id: u64,
    parent: u64,
    name: String,
    start_ns: u64,
    end_ns: u64,
    /// Simulated ops (phases, chunks) or DRAM requests (scheme accesses).
    count: u64,
}

/// Spans kept in memory for one run and written out when it ends.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            origin: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    /// A fresh span id, so children can name a parent still open.
    fn id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a closed span.
    fn record(
        &mut self,
        id: u64,
        parent: u64,
        name: &str,
        start: Instant,
        end: Instant,
        count: u64,
    ) {
        let span = Span {
            id,
            parent,
            name: name.to_owned(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            count,
        };
        self.spans.push(span);
    }

    /// Spans recorded so far.
    pub(crate) fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes one JSON object per span to `path`, after a header line.
    pub(crate) fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.count
            )?;
        }
        out.flush()
    }
}

/// What the timing wrapper shares with the harness.
#[derive(Debug, Default)]
struct SchemeLog {
    reads: AccessTally,
    writes: AccessTally,
    /// Span the next sampled access attaches to (the chunk in flight).
    parent: u64,
    /// Sampled accesses: (parent, start, end, is_write, DRAM requests).
    samples: Vec<(u64, Instant, Instant, bool, u64)>,
}

/// Delegates every `MemoryScheme` method to `inner`, timing `access`.
struct TimedScheme {
    inner: Box<dyn MemoryScheme>,
    log: Rc<RefCell<SchemeLog>>,
}

impl TimedScheme {
    fn new(inner: Box<dyn MemoryScheme>, log: Rc<RefCell<SchemeLog>>) -> Self {
        TimedScheme { inner, log }
    }
}

fn dram_requests(dram: &Dram) -> u64 {
    let s = dram.stats();
    s.reads.get() + s.writes.get()
}

impl MemoryScheme for TimedScheme {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn access(&mut self, now: Time, addr: PhysAddr, is_write: bool, dram: &mut Dram) -> McResponse {
        let reqs_before = dram_requests(dram);
        let start = Instant::now();
        let resp = self.inner.access(now, addr, is_write, dram);
        let end = Instant::now();
        let reqs = dram_requests(dram) - reqs_before;
        let ns = end.duration_since(start).as_nanos() as u64;
        let mut log = self.log.borrow_mut();
        let tally = if is_write {
            &mut log.writes
        } else {
            &mut log.reads
        };
        tally.add(ns, reqs);
        if (log.reads.calls + log.writes.calls).is_multiple_of(ACCESS_SAMPLE_EVERY) {
            let parent = log.parent;
            log.samples.push((parent, start, end, is_write, reqs));
        }
        resp
    }

    fn set_warmup(&mut self, warmup: bool) {
        self.inner.set_warmup(warmup);
    }

    fn set_probe(&mut self, probe: ProbeHandle) {
        self.inner.set_probe(probe);
    }

    fn cte_cache_geometry(&self) -> Option<CteCacheGeometry> {
        self.inner.cte_cache_geometry()
    }

    fn apply_pressure(&mut self, now: Time, extra_free_pages: u64, dram: &mut Dram) {
        self.inner.apply_pressure(now, extra_free_pages, dram);
    }

    fn stats(&self) -> &McStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn occupancy(&self) -> Occupancy {
        self.inner.occupancy()
    }

    fn write_snapshot(&self, w: &mut SnapWriter) {
        self.inner.write_snapshot(w);
    }

    fn restore_snapshot(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner.restore_snapshot(r)
    }
}

/// Assembles the system `System::new` would build for `config`, with the
/// scheme wrapped in a [`TimedScheme`] logging into `log`.
fn assemble(config: &SystemConfig, spec: &BenchmarkSpec, log: Rc<RefCell<SchemeLog>>) -> System {
    assemble_with(config, spec, |scheme| {
        Box::new(TimedScheme::new(scheme, log))
    })
}

/// Assembles the system `System::new` would build for `config` — same
/// layout, DRAM, compressibility profile and scheme seed — with the scheme
/// passed through `wrap`, then hands it to `System::from_parts`.
///
/// # Panics
///
/// Panics for configurations the benchmark never times: more than one
/// memory controller, nested walks, or a scheme other than TMCC/DyLeCT.
pub fn assemble_with(
    config: &SystemConfig,
    spec: &BenchmarkSpec,
    wrap: impl FnOnce(Box<dyn MemoryScheme>) -> Box<dyn MemoryScheme>,
) -> System {
    assert_eq!(config.memory_controllers, 1, "one memory controller");
    assert!(!config.core.nested_walk, "flat page walks");
    let os_pages = PageTableLayout::new(spec.footprint_pages(config.scale)).total_os_pages();
    let dram_bytes = config.dram_bytes.div_ceil(1 << 20) << 20;
    let dram = Dram::new(DramConfig::paper(dram_bytes, config.dram_ranks));
    let profile = spec.workload(config.scale, config.seed).profile().clone();
    let scheme: Box<dyn MemoryScheme> = match config.scheme {
        SchemeKind::Tmcc {
            granule_pages,
            cte_cache_bytes,
        } => Box::new(Tmcc::new(
            TmccConfig {
                granule_pages,
                cte_cache_bytes,
                ..TmccConfig::paper(os_pages)
            },
            &dram,
            profile,
            config.seed,
        )),
        SchemeKind::Dylect {
            group_size,
            cte_cache_bytes,
        } => Box::new(Dylect::new(
            DylectConfig {
                group_size,
                cte_cache_bytes,
                ..DylectConfig::paper(os_pages)
            },
            &dram,
            profile,
            config.seed,
        )),
        ref other => panic!("no timed assembly for scheme {}", other.label()),
    };
    let shared = SharedMemory::new(
        config.l3_bytes,
        config.l3_ways,
        config.l3_latency,
        wrap(scheme),
        dram,
    );
    System::from_parts(config.clone(), spec, shared)
}

/// Host nanoseconds of one traced cell, by phase.
#[derive(Debug)]
pub struct TracedCell {
    pub report: RunReport,
    pub setup_ns: u64,
    /// Time inside the warmup window's timed `execute` chunks.
    pub warmup_ns: u64,
    /// Time inside the measure window's timed `execute` chunks.
    pub measure_ns: u64,
    pub finish_ns: u64,
    /// From the start of `setup` to the end of `finish`.
    pub wall_ns: u64,
    pub reads: AccessTally,
    pub writes: AccessTally,
    /// Ops each core retired in warmup and in the measure window, for the
    /// generation replay.
    pub core_ops: [Vec<u64>; 2],
}

impl TracedCell {
    pub fn execute_ns(&self) -> u64 {
        self.warmup_ns + self.measure_ns
    }

    pub fn scheme_ns(&self) -> u64 {
        self.reads.ns + self.writes.ns
    }

    /// Wall time no phase accounts for: the harness's own loop and timer
    /// reads between the timed calls.
    pub fn residual_ns(&self) -> u64 {
        self.wall_ns
            .saturating_sub(self.setup_ns + self.execute_ns() + self.finish_ns)
    }
}

fn core_ops(sys: &System) -> Vec<u64> {
    sys.cores()
        .iter()
        .map(|c| c.stats().mem_ops.get())
        .collect()
}

/// Runs `window` ops in [`CHUNK_OPS`] chunks, one span per chunk under
/// `parent`; returns the host nanoseconds inside `execute`.
fn execute_chunks(
    sys: &mut System,
    window: u64,
    parent: u64,
    log: &Rc<RefCell<SchemeLog>>,
    spans: &mut SpanLog,
) -> u64 {
    let mut inside = 0;
    let mut done = 0;
    while done < window {
        let n = CHUNK_OPS.min(window - done);
        let id = spans.id();
        log.borrow_mut().parent = id;
        let start = Instant::now();
        sys.execute(n);
        let end = Instant::now();
        inside += end.duration_since(start).as_nanos() as u64;
        spans.record(id, parent, "execute", start, end, n);
        done += n;
    }
    inside
}

/// Runs `cell` through the timed assembly, phase by phase:
/// setup → warmup → measure → finish. `System::run` is the same sequence
/// as one call, so the report is the untraced one.
pub fn run_traced(cell: &Cell, spans: &mut SpanLog) -> TracedCell {
    let log = Rc::new(RefCell::new(SchemeLog::default()));
    let cell_id = spans.id();

    let t0 = Instant::now();
    let mut sys = assemble(&cell.config, &cell.spec, log.clone());
    if let Some(t) = cell.telemetry {
        sys.enable_telemetry(t);
    }
    let t1 = Instant::now();
    let setup = spans.id();
    spans.record(setup, cell_id, "setup", t0, t1, 0);

    let warm = spans.id();
    sys.warm_up(0);
    let warmup_ns = execute_chunks(&mut sys, cell.warmup_ops, warm, &log, spans);
    let warmup_core_ops = core_ops(&sys);
    let t2 = Instant::now();
    spans.record(warm, cell_id, "warmup", t1, t2, cell.warmup_ops);

    let measure = spans.id();
    sys.start_measurement();
    let measure_ns = execute_chunks(&mut sys, cell.measure_ops, measure, &log, spans);
    let measure_core_ops = core_ops(&sys);
    let t3 = Instant::now();
    spans.record(measure, cell_id, "measure", t2, t3, cell.measure_ops);

    let report = sys.finish();
    let t4 = Instant::now();
    let finish = spans.id();
    spans.record(finish, cell_id, "finish", t3, t4, 0);
    let name = format!("cell.{}", cell.label());
    spans.record(cell_id, 0, &name, t0, t4, cell.total_ops());

    let log = log.borrow();
    for &(parent, start, end, write, reqs) in &log.samples {
        let id = spans.id();
        let kind = if write { "write" } else { "read" };
        let name = format!("{}.{kind}", cell.scheme_layer());
        spans.record(id, parent, &name, start, end, reqs);
    }
    let ns = |a: Instant, b: Instant| b.duration_since(a).as_nanos() as u64;
    TracedCell {
        report,
        setup_ns: ns(t0, t1),
        warmup_ns,
        measure_ns,
        finish_ns: ns(t3, t4),
        wall_ns: ns(t0, t4),
        reads: log.reads,
        writes: log.writes,
        core_ops: [warmup_core_ops, measure_core_ops],
    }
}

/// Host nanoseconds to regenerate the op streams `traced` retired: each
/// core's generator, rebuilt from the cell's seed, replays warmup then
/// measure with the call the run loop uses (`fill_batch` on the 1-core
/// fast path, `next_op` otherwise).
pub(crate) fn replay_generation(cell: &Cell, traced: &TracedCell) -> u64 {
    let cfg = &cell.config;
    let mut workloads: Vec<SyntheticWorkload> = (0..cfg.cores)
        .map(|i| {
            cell.spec
                .workload(cfg.scale, cfg.seed.wrapping_add(i as u64 * 7919))
        })
        .collect();
    let batched = cfg.cores == 1 && cell.telemetry.is_none();
    let mut batch = OpBatch::with_capacity(BATCH_OPS as usize);
    let start = Instant::now();
    for window in &traced.core_ops {
        for (wl, &ops) in workloads.iter_mut().zip(window) {
            if batched {
                let mut left = ops;
                while left > 0 {
                    let n = left.min(BATCH_OPS);
                    wl.fill_batch(&mut batch, n as usize);
                    black_box(&batch);
                    left -= n;
                }
            } else {
                for _ in 0..ops {
                    black_box(wl.next_op());
                }
            }
        }
    }
    start.elapsed().as_nanos() as u64
}
