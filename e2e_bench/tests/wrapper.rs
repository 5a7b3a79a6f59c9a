//! The traced run is only trustworthy if the outside assembly and the
//! timing wrapper simulate exactly what `System::new` does. These tests
//! pin that byte for byte at a tiny configuration, on both the batched
//! 1-core path and the per-op multi-core path, and show that a wrapper
//! which drops `set_warmup` would be caught.

use dylect_dram::Dram;
use dylect_e2e_bench::cells::Cell;
use dylect_e2e_bench::trace::{assemble_with, run_traced, SpanLog};
use dylect_memctl::{CteCacheGeometry, McResponse, McStats, MemoryScheme, Occupancy};
use dylect_sim::{SchemeKind, System, SystemConfig};
use dylect_sim_core::probe::ProbeHandle;
use dylect_sim_core::snap::{SnapError, SnapReader, SnapWriter};
use dylect_sim_core::{PhysAddr, Time};
use dylect_workloads::{BenchmarkSpec, CompressionSetting};

fn tiny_cell(scheme: SchemeKind, cores: usize) -> Cell {
    let spec = BenchmarkSpec::by_name("canneal").expect("canneal");
    let mut config = SystemConfig::quick(&spec, scheme, CompressionSetting::High);
    config.cores = cores;
    Cell {
        spec,
        config,
        warmup_ops: 60_000,
        measure_ops: 20_000,
        telemetry: None,
    }
}

fn reference(cell: &Cell) -> String {
    System::new(cell.config.clone(), &cell.spec)
        .run(cell.warmup_ops, cell.measure_ops)
        .to_cache_text()
}

#[test]
fn traced_assembly_reproduces_system_new() {
    for scheme in [SchemeKind::tmcc(), SchemeKind::dylect()] {
        for cores in [1, 2] {
            for observed in [false, true] {
                let cell = tiny_cell(scheme.clone(), cores).with_telemetry(observed);
                let traced = run_traced(&cell, &mut SpanLog::default());
                assert_eq!(
                    traced.report.to_cache_text(),
                    reference(&cell),
                    "{} cores={cores} observed={observed}",
                    scheme.label()
                );
                let calls = traced.reads.calls + traced.writes.calls;
                assert!(calls > 0, "the wrapper saw the scheme accesses");
                assert!(traced.execute_ns() >= traced.scheme_ns());
            }
        }
    }
}

/// Forwards everything except `set_warmup`.
struct DropsWarmup(Box<dyn MemoryScheme>);

impl MemoryScheme for DropsWarmup {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn access(&mut self, now: Time, addr: PhysAddr, is_write: bool, dram: &mut Dram) -> McResponse {
        self.0.access(now, addr, is_write, dram)
    }
    fn set_probe(&mut self, probe: ProbeHandle) {
        self.0.set_probe(probe);
    }
    fn cte_cache_geometry(&self) -> Option<CteCacheGeometry> {
        self.0.cte_cache_geometry()
    }
    fn stats(&self) -> &McStats {
        self.0.stats()
    }
    fn reset_stats(&mut self) {
        self.0.reset_stats();
    }
    fn occupancy(&self) -> Occupancy {
        self.0.occupancy()
    }
    fn write_snapshot(&self, w: &mut SnapWriter) {
        self.0.write_snapshot(w);
    }
    fn restore_snapshot(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.0.restore_snapshot(r)
    }
}

#[test]
fn dropping_set_warmup_changes_the_report() {
    let cell = tiny_cell(SchemeKind::dylect(), 2);
    let mut sys = assemble_with(&cell.config, &cell.spec, |s| Box::new(DropsWarmup(s)));
    let report = sys.run(cell.warmup_ops, cell.measure_ops);
    assert_ne!(
        report.to_cache_text(),
        reference(&cell),
        "DyLeCT's warmup acceleration must show in the report, or the \
         byte-identity test could not catch a wrapper that loses it"
    );
}
