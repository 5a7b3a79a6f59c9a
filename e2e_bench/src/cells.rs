//! The benchmark's workloads: each is one TMCC/DyLeCT cell pair, built
//! through the same public path the figure binaries use.

use dylect_bench::{config_for, warmup_for, Mode};
use dylect_sim::{SchemeKind, System, SystemConfig};
use dylect_telemetry::TelemetryConfig;
use dylect_workloads::{BenchmarkSpec, CompressionSetting};

/// The repository's root seed (`SystemConfig::paper`), used when no
/// `--seed` is given.
pub const DEFAULT_SEED: u64 = 0x00D1_1EC7;

/// `fastpath1c` windows: long enough that one cell takes about 0.4 s on a
/// 2-CPU host, so a run holds dozens of repetitions.
const FASTPATH_WARMUP_OPS: u64 = 1_000_000;
const FASTPATH_MEASURE_OPS: u64 = 2_000_000;

/// One named set of inputs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Full-mode Figure 18 pair: canneal at high compression, 4 cores.
    Paper4cHigh,
    /// `SystemConfig::quick` (1 core, 1/512 scale): omnetpp at high
    /// compression on the batched fast path.
    Fastpath1c,
    /// `Paper4cHigh` with shadow telemetry enabled before `run`.
    Observed4c,
}

impl Workload {
    /// Every workload, in the order the docs list them.
    pub const ALL: [Workload; 3] = [
        Workload::Paper4cHigh,
        Workload::Fastpath1c,
        Workload::Observed4c,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper4cHigh => "paper4c_high",
            Workload::Fastpath1c => "fastpath1c",
            Workload::Observed4c => "observed4c",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the cells run with shadow telemetry on.
    pub fn observed(self) -> bool {
        self == Workload::Observed4c
    }

    /// The paper's Figure 18 speedup for this cell pair, where the
    /// repository holds one (EXPERIMENTS.md: canneal at high compression
    /// gains 10 %).
    pub fn paper_speedup(self) -> Option<f64> {
        match self {
            Workload::Paper4cHigh | Workload::Observed4c => Some(1.10),
            Workload::Fastpath1c => None,
        }
    }

    /// Whether the EXPERIMENTS.md Figure 18/19 shape (DyLeCT beats TMCC on
    /// stores/ns and CTE hit rate) is asserted. Quick-mode footprints fit
    /// the CTE cache, so `fastpath1c` inverts the speedup (a known miss,
    /// reported but not asserted).
    pub fn asserts_paper_shape(self) -> bool {
        self != Workload::Fastpath1c
    }

    /// The cell pair, TMCC first, for workload seed `seed`.
    pub fn cells(self, seed: u64) -> [Cell; 2] {
        [SchemeKind::tmcc(), SchemeKind::dylect()].map(|scheme| {
            let (spec, mut config, warmup_ops, measure_ops) = match self {
                Workload::Paper4cHigh | Workload::Observed4c => {
                    let spec = spec("canneal");
                    let mode = Mode::full();
                    let config = config_for(&spec, scheme, CompressionSetting::High, mode);
                    let warmup = warmup_for(&spec, mode);
                    (spec, config, warmup, mode.measure_ops)
                }
                Workload::Fastpath1c => {
                    let spec = spec("omnetpp");
                    let config = SystemConfig::quick(&spec, scheme, CompressionSetting::High);
                    (spec, config, FASTPATH_WARMUP_OPS, FASTPATH_MEASURE_OPS)
                }
            };
            config.seed = seed;
            let cell = Cell {
                spec,
                config,
                warmup_ops,
                measure_ops,
                telemetry: None,
            };
            cell.with_telemetry(self.observed())
        })
    }
}

fn spec(name: &str) -> BenchmarkSpec {
    BenchmarkSpec::by_name(name).expect("benchmark in the suite")
}

/// One simulation: a benchmark × scheme configuration and its windows.
#[derive(Clone, Debug)]
pub struct Cell {
    pub spec: BenchmarkSpec,
    pub config: SystemConfig,
    pub warmup_ops: u64,
    pub measure_ops: u64,
    /// Telemetry enabled between `System::new` and `System::run`.
    pub telemetry: Option<TelemetryConfig>,
}

impl Cell {
    /// `"tmcc"` or `"dylect"`: the suffix of this cell's per-layer metrics.
    pub fn label(&self) -> &'static str {
        match self.config.scheme {
            SchemeKind::Dylect { .. } => "dylect",
            _ => "tmcc",
        }
    }

    /// The crate whose scheme this cell runs, as a layer name: `tmcc`
    /// for TMCC, `core` for DyLeCT.
    pub fn scheme_layer(&self) -> &'static str {
        match self.config.scheme {
            SchemeKind::Dylect { .. } => "core",
            _ => "tmcc",
        }
    }

    /// The same cell with shadow telemetry switched `on` or off.
    pub fn with_telemetry(&self, on: bool) -> Cell {
        Cell {
            telemetry: on.then(|| TelemetryConfig {
                shadow: true,
                ..TelemetryConfig::default()
            }),
            ..self.clone()
        }
    }

    /// Builds the system as the figure binaries do and, if the cell is
    /// observed, enables its telemetry.
    pub fn build(&self) -> System {
        let mut sys = System::new(self.config.clone(), &self.spec);
        if let Some(t) = self.telemetry {
            sys.enable_telemetry(t);
        }
        sys
    }

    /// Simulated memory operations, warmup plus measure.
    pub fn total_ops(&self) -> u64 {
        self.warmup_ops + self.measure_ops
    }
}
