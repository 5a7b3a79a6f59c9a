//! The untraced and traced runs of one workload, their output checks, and
//! the metrics they report.

use std::path::Path;
use std::time::{Duration, Instant};

use dylect_sim::RunReport;

use crate::cells::{Cell, Workload};
use crate::trace::{replay_generation, run_traced, SpanLog, TracedCell};

/// Set-up-only rounds (every cell built and dropped) before the timed
/// repetitions, so `setup_s` is a median over enough samples even when a
/// run holds few repetitions.
const SETUP_ROUNDS: usize = 40;

/// Which way a metric improves.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric the benchmark can report: name, unit, and direction.
pub type MetricSpec = (String, &'static str, Better);

/// The end-to-end metrics of the untraced run (every workload reports
/// all of them).
pub fn end_to_end_catalog() -> Vec<MetricSpec> {
    use Better::*;
    [
        ("wall_s", "s", Lower),
        ("setup_s", "s", Lower),
        ("sim_mops_per_s", "Mop/s", Higher),
        ("peak_rss_mb", "MB", Lower),
        ("sim_speedup", "ratio", Higher),
    ]
    .into_iter()
    .map(|(n, u, b)| (n.to_owned(), u, b))
    .collect()
}

/// The per-layer metrics of the traced run. Per-cell metrics carry a
/// `.tmcc` / `.dylect` suffix; scheme-layer metrics are named after the
/// scheme crate (`tmcc` for TMCC, `core` for DyLeCT).
pub fn per_layer_catalog() -> Vec<MetricSpec> {
    use Better::*;
    let mut out: Vec<MetricSpec> = [
        ("workloads.gen_ns_per_op", "ns/op", Lower),
        ("telemetry.overhead_pct", "%", Lower),
        ("trace.overhead_pct", "%", Lower),
        ("trace.residual_pct", "%", Lower),
    ]
    .into_iter()
    .map(|(n, u, b)| (n.to_owned(), u, b))
    .collect();
    for scheme in ["tmcc", "core"] {
        for (n, u, b) in [
            ("read_ns_per_call", "ns/call", Lower),
            ("write_ns_per_call", "ns/call", Lower),
            ("read_calls", "count", Lower),
            ("write_calls", "count", Lower),
            ("host_share", "ratio", Lower),
            ("cte_hit_rate", "ratio", Higher),
            ("expansions", "count", Lower),
            ("compactions", "count", Lower),
        ] {
            out.push((format!("{scheme}.{n}"), u, b));
        }
    }
    out.push(("core.pregathered_hit_rate".to_owned(), "ratio", Higher));
    out.push(("core.promotions".to_owned(), "count", Lower));
    for cell in ["tmcc", "dylect"] {
        for (n, u, b) in [
            ("sim.core_side_ns_per_op", "ns/op", Lower),
            ("sim.warmup_ns_per_op", "ns/op", Lower),
            ("sim.measure_ns_per_op", "ns/op", Lower),
            ("cpu.tlb_miss_rate", "ratio", Lower),
            ("cpu.walks_pki", "1/kinstr", Lower),
            ("sim.l3_miss_pki", "1/kinstr", Lower),
            ("sim.l3_miss_latency_ns", "ns", Lower),
            ("sim.l3_miss_overhead_ns", "ns", Lower),
            ("dram.reqs_per_call", "count", Lower),
            ("dram.row_hit_rate", "ratio", Higher),
            ("dram.bus_utilization", "ratio", Lower),
            ("dram.cte_traffic_pki", "1/kinstr", Lower),
        ] {
            out.push((format!("{n}.{cell}"), u, b));
        }
    }
    out
}

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one run: metrics, cell accounting, and report lines.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Cells simulated.
    pub attempted: u64,
    /// Cells that failed any output check.
    pub failed: u64,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Records one simulated cell and the checks it failed.
    fn cell(&mut self, what: &str, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            self.notes
                .push(format!("FAILED {what}: {}", failures.join("; ")));
        }
    }
}

/// One untraced cell: the report and where its host time went.
struct PlainRun {
    report: RunReport,
    /// `RunReport::to_cache_text`, the byte-exact form checks compare.
    text: String,
    /// `System::new` (plus `enable_telemetry` for observed cells).
    setup_s: f64,
    /// `System::run`: warmup, measure and finish.
    run_s: f64,
}

impl PlainRun {
    fn wall_s(&self) -> f64 {
        self.setup_s + self.run_s
    }
}

/// Runs `cell` exactly as the figure binaries do.
fn run_plain(cell: &Cell) -> PlainRun {
    let t0 = Instant::now();
    let mut sys = cell.build();
    let t1 = Instant::now();
    let report = sys.run(cell.warmup_ops, cell.measure_ops);
    let t2 = Instant::now();
    PlainRun {
        text: report.to_cache_text(),
        report,
        setup_s: (t1 - t0).as_secs_f64(),
        run_s: (t2 - t1).as_secs_f64(),
    }
}

/// Seconds to build `cell`'s system, which is then dropped unrun.
fn setup_only(cell: &Cell) -> f64 {
    let t0 = Instant::now();
    let sys = cell.build();
    let s = t0.elapsed().as_secs_f64();
    drop(sys);
    s
}

/// Checks every report must pass: the measure window retired exactly its
/// ops and committed stores in positive simulated time.
fn sanity(cell: &Cell, report: &RunReport) -> Vec<String> {
    let mut bad = Vec::new();
    if report.mem_ops != cell.measure_ops {
        bad.push(format!(
            "retired {} measured ops, expected {}",
            report.mem_ops, cell.measure_ops
        ));
    }
    if report.stores == 0 || report.stores_per_ns() <= 0.0 {
        bad.push("no committed stores".to_owned());
    }
    bad
}

/// The EXPERIMENTS.md Figure 18/19 shape on a TMCC/DyLeCT pair: DyLeCT
/// commits more stores/ns and hits its CTE cache more often.
fn paper_shape(tmcc: &RunReport, dylect: &RunReport) -> Option<String> {
    let (s_t, s_d) = (tmcc.stores_per_ns(), dylect.stores_per_ns());
    let (h_t, h_d) = (tmcc.mc.cte_hit_rate(), dylect.mc.cte_hit_rate());
    if s_d > s_t && h_d > h_t {
        None
    } else {
        Some(format!(
            "Figure 18/19 shape: DyLeCT stores/ns {s_d:.6} vs TMCC {s_t:.6}, \
             CTE hit rate {h_d:.4} vs {h_t:.4}"
        ))
    }
}

/// DyLeCT stores/ns over TMCC's: the Figure 18 metric.
fn speedup(tmcc: &RunReport, dylect: &RunReport) -> f64 {
    dylect.stores_per_ns() / tmcc.stores_per_ns()
}

/// Checks one untraced pair (sanity, and the paper shape where the
/// workload asserts it) plus equality with `expected` report texts.
fn check_pair(
    out: &mut Outcome,
    workload: Workload,
    cells: &[Cell; 2],
    runs: &[PlainRun; 2],
    expected: Option<(&[String; 2], &str)>,
    what: &str,
) {
    let shape = workload
        .asserts_paper_shape()
        .then(|| paper_shape(&runs[0].report, &runs[1].report))
        .flatten();
    for i in 0..2 {
        let mut bad = sanity(&cells[i], &runs[i].report);
        bad.extend(shape.clone());
        if let Some((texts, against)) = expected {
            if runs[i].text != texts[i] {
                bad.push(format!("report differs from {against}"));
            }
        }
        out.cell(&format!("{what} {}", cells[i].label()), bad);
    }
}

/// Speedup against the paper's reference, or the note that none exists.
fn speedup_note(workload: Workload, s: f64) -> String {
    match workload.paper_speedup() {
        Some(paper) => format!(
            "sim_speedup {s:.4}; paper {paper:.2}; sim_speedup_err {:.4}",
            (s - paper).abs()
        ),
        None => format!(
            "sim_speedup {s:.4}; no paper reference for this cell pair, so no sim_speedup_err"
        ),
    }
}

fn known_misses(out: &mut Outcome, workload: Workload, s: f64) {
    if !workload.asserts_paper_shape() && s < 1.0 {
        out.notes.push(format!(
            "known miss: quick-mode inversion (sim_speedup {s:.4} < 1; the quick footprint \
             fits the CTE cache), reported, not asserted"
        ));
    }
}

/// The process's peak resident set (VmHWM), MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Median of a non-empty sample.
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The untraced run: repeats the workload's cell pair until `budget` would
/// be overrun and reports medians over the repetitions.
pub fn untraced(workload: Workload, seed: u64, budget: Duration) -> Outcome {
    let start = Instant::now();
    let cells = workload.cells(seed);
    let mut out = Outcome::default();

    // Repetitions must agree byte for byte (the simulator is
    // deterministic). Observed cells must also reproduce the telemetry-off
    // reports, since telemetry is observation-only.
    let mut expected: Option<[String; 2]> = workload.observed().then(|| {
        let plain = cells
            .each_ref()
            .map(|c| run_plain(&c.with_telemetry(false)));
        check_pair(&mut out, workload, &cells, &plain, None, "plain reference");
        plain.map(|r| r.text)
    });

    let mut setup: Vec<f64> = (0..SETUP_ROUNDS)
        .map(|_| cells.iter().map(setup_only).sum())
        .collect();
    let mut wall = Vec::new();
    let mut mops = Vec::new();
    let ops: u64 = cells.iter().map(Cell::total_ops).sum();
    let mut speedup_s;
    loop {
        let rep_start = Instant::now();
        let runs = cells.each_ref().map(run_plain);
        setup.push(runs.iter().map(|r| r.setup_s).sum());
        wall.push(pair_wall(&runs));
        mops.push(ops as f64 / runs.iter().map(|r| r.run_s).sum::<f64>() / 1e6);
        speedup_s = speedup(&runs[0].report, &runs[1].report);
        let against = expected.as_ref().map(|t| (t, "the reference run"));
        check_pair(&mut out, workload, &cells, &runs, against, "untraced");
        if expected.is_none() {
            expected = Some(runs.map(|r| r.text));
        }
        if start.elapsed() + rep_start.elapsed() > budget {
            break;
        }
    }
    out.notes.push(format!(
        "{} repetitions of the cell pair, {} set-up samples",
        wall.len(),
        setup.len()
    ));
    out.notes.push(speedup_note(workload, speedup_s));
    known_misses(&mut out, workload, speedup_s);
    out.put("wall_s", median(&wall), "s");
    out.put("setup_s", median(&setup), "s");
    out.put("sim_mops_per_s", median(&mops), "Mop/s");
    out.put("peak_rss_mb", peak_rss_mb(), "MB");
    out.put("sim_speedup", speedup_s, "ratio");
    out
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-cell metrics from a traced cell and its replayed generation time.
fn cell_layers(out: &mut Outcome, cell: &Cell, t: &TracedCell, gen_ns: u64) {
    let r = &t.report;
    let label = cell.label();
    let scheme = cell.scheme_layer();
    let ops = cell.total_ops() as f64;
    let kinstr = r.instructions as f64 / 1000.0;
    let calls = t.reads.calls + t.writes.calls;

    let mut scheme_metrics = vec![
        (
            "read_ns_per_call",
            ratio(t.reads.ns as f64, t.reads.calls as f64),
            "ns/call",
        ),
        (
            "write_ns_per_call",
            ratio(t.writes.ns as f64, t.writes.calls as f64),
            "ns/call",
        ),
        ("read_calls", t.reads.calls as f64, "count"),
        ("write_calls", t.writes.calls as f64, "count"),
        (
            "host_share",
            ratio(t.scheme_ns() as f64, t.execute_ns() as f64),
            "ratio",
        ),
        ("cte_hit_rate", r.mc.cte_hit_rate(), "ratio"),
        ("expansions", r.mc.expansions.get() as f64, "count"),
        ("compactions", r.mc.compactions.get() as f64, "count"),
    ];
    if scheme == "core" {
        scheme_metrics.push(("pregathered_hit_rate", r.mc.pregathered_hit_rate(), "ratio"));
        scheme_metrics.push(("promotions", r.mc.promotions.get() as f64, "count"));
    }
    for (name, value, unit) in scheme_metrics {
        out.put(&format!("{scheme}.{name}"), value, unit);
    }

    let core_side = t.execute_ns() as f64 - t.scheme_ns() as f64 - gen_ns as f64;
    let per_cell: [(&str, f64, &'static str); 12] = [
        ("sim.core_side_ns_per_op", core_side / ops, "ns/op"),
        (
            "sim.warmup_ns_per_op",
            ratio(t.warmup_ns as f64, cell.warmup_ops as f64),
            "ns/op",
        ),
        (
            "sim.measure_ns_per_op",
            ratio(t.measure_ns as f64, cell.measure_ops as f64),
            "ns/op",
        ),
        ("cpu.tlb_miss_rate", r.tlb_miss_rate, "ratio"),
        ("cpu.walks_pki", ratio(r.walks as f64, kinstr), "1/kinstr"),
        (
            "sim.l3_miss_pki",
            ratio(r.l3_misses as f64, kinstr),
            "1/kinstr",
        ),
        ("sim.l3_miss_latency_ns", r.l3_miss_latency_ns, "ns"),
        ("sim.l3_miss_overhead_ns", r.l3_miss_overhead_ns, "ns"),
        (
            "dram.reqs_per_call",
            ratio(
                (t.reads.dram_reqs + t.writes.dram_reqs) as f64,
                calls as f64,
            ),
            "count",
        ),
        ("dram.row_hit_rate", r.dram.row_hit_rate(), "ratio"),
        ("dram.bus_utilization", r.bus_utilization(), "ratio"),
        (
            "dram.cte_traffic_pki",
            r.cte_traffic_per_kilo_instruction(),
            "1/kinstr",
        ),
    ];
    for (name, value, unit) in per_cell {
        out.put(&format!("{name}.{label}"), value, unit);
    }

    let ms = |ns: f64| ns / 1e6;
    let wall = t.wall_ns as f64;
    let pct = |ns: f64| 100.0 * ns / wall;
    let rows = [
        ("setup", t.setup_ns as f64),
        ("workloads (replayed)", gen_ns as f64),
        (scheme, t.scheme_ns() as f64),
        ("cpu+cache+sim (remainder of execute)", core_side),
        ("finish", t.finish_ns as f64),
        ("untimed residual", t.residual_ns() as f64),
    ];
    out.notes.push(format!(
        "layer split, traced {label} cell ({:.1} ms wall):",
        ms(wall)
    ));
    for (layer, ns) in rows {
        out.notes.push(format!(
            "  {layer:<38} {:>10.1} ms {:>6.2} %",
            ms(ns),
            pct(ns)
        ));
    }
}

/// One round of the traced run.
struct Round {
    plain_wall: f64,
    traced: [TracedCell; 2],
    gen_ns: [u64; 2],
    toggled_wall: f64,
}

impl Round {
    fn traced_wall(&self) -> f64 {
        self.traced.iter().map(|t| t.wall_ns as f64 / 1e9).sum()
    }
}

fn pair_wall(runs: &[PlainRun; 2]) -> f64 {
    runs.iter().map(PlainRun::wall_s).sum()
}

/// The traced run. Each round runs the cell pair untraced, through the
/// timing wrapper, as a generation replay, and untraced again with
/// telemetry toggled; rounds repeat until `budget` would be overrun. The
/// layer split comes from the round with the median traced wall time,
/// overheads are medians over rounds, and the first round's spans are
/// written to `spans_path`.
pub fn traced(
    workload: Workload,
    seed: u64,
    budget: Duration,
    spans_path: &Path,
    header: &str,
) -> Outcome {
    let start = Instant::now();
    let cells = workload.cells(seed);
    let toggled_cells = cells
        .each_ref()
        .map(|c| c.with_telemetry(!workload.observed()));
    let mut out = Outcome::default();
    let mut spans = SpanLog::default();
    let mut rounds: Vec<Round> = Vec::new();
    let mut speedup_s;
    loop {
        let round_start = Instant::now();
        let plain = cells.each_ref().map(run_plain);
        check_pair(&mut out, workload, &cells, &plain, None, "untraced");
        speedup_s = speedup(&plain[0].report, &plain[1].report);
        let texts = plain.each_ref().map(|r| r.text.clone());

        let mut round_spans = SpanLog::default();
        let traced = cells.each_ref().map(|c| run_traced(c, &mut round_spans));
        if rounds.is_empty() {
            spans = round_spans;
        }
        for ((cell, t), text) in cells.iter().zip(&traced).zip(&texts) {
            let mut bad = sanity(cell, &t.report);
            if t.report.to_cache_text() != *text {
                bad.push("traced report differs from the untraced one".to_owned());
            }
            out.cell(&format!("traced {}", cell.label()), bad);
        }
        let gen_ns = [0, 1].map(|i| replay_generation(&cells[i], &traced[i]));

        let toggled = toggled_cells.each_ref().map(run_plain);
        check_pair(
            &mut out,
            workload,
            &toggled_cells,
            &toggled,
            Some((&texts, "the same cell with telemetry toggled")),
            "telemetry-toggled",
        );
        rounds.push(Round {
            plain_wall: pair_wall(&plain),
            traced,
            gen_ns,
            toggled_wall: pair_wall(&toggled),
        });
        if start.elapsed() + round_start.elapsed() > budget {
            break;
        }
    }

    let trace_pct: Vec<f64> = rounds
        .iter()
        .map(|r| 100.0 * (r.traced_wall() - r.plain_wall) / r.plain_wall)
        .collect();
    let telemetry_pct: Vec<f64> = rounds
        .iter()
        .map(|r| {
            let (off, on) = if workload.observed() {
                (r.toggled_wall, r.plain_wall)
            } else {
                (r.plain_wall, r.toggled_wall)
            };
            100.0 * (on - off) / off
        })
        .collect();
    rounds.sort_by(|a, b| a.traced_wall().total_cmp(&b.traced_wall()));
    let mid = &rounds[(rounds.len() - 1) / 2];
    let ops: u64 = cells.iter().map(Cell::total_ops).sum();
    let residual: f64 = mid
        .traced
        .iter()
        .map(|t| t.residual_ns() as f64 / 1e9)
        .sum();

    out.put(
        "workloads.gen_ns_per_op",
        mid.gen_ns.iter().sum::<u64>() as f64 / ops as f64,
        "ns/op",
    );
    out.put("telemetry.overhead_pct", median(&telemetry_pct), "%");
    out.put("trace.overhead_pct", median(&trace_pct), "%");
    out.put(
        "trace.residual_pct",
        100.0 * residual / mid.traced_wall(),
        "%",
    );
    for ((cell, t), &g) in cells.iter().zip(&mid.traced).zip(&mid.gen_ns) {
        cell_layers(&mut out, cell, t, g);
    }
    out.notes.push(format!(
        "{} rounds; layer split from the median round (traced wall {:.3} s)",
        rounds.len(),
        mid.traced_wall()
    ));
    out.notes.push(speedup_note(workload, speedup_s));
    known_misses(&mut out, workload, speedup_s);
    match spans.write_jsonl(spans_path, header) {
        Ok(()) => out.notes.push(format!(
            "{} spans of the first round written to {}",
            spans.len(),
            spans_path.display()
        )),
        Err(e) => out.notes.push(format!(
            "could not write spans to {}: {e}",
            spans_path.display()
        )),
    }
    out
}
