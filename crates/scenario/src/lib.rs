//! Datacenter scenario subsystem for the DyLeCT reproduction.
//!
//! The paper evaluates single-process runs; real deployments of
//! hardware-compressed memory face four extra stressors this crate
//! models on top of [`dylect_sim::System`]:
//!
//! * **Multi-tenant co-scheduling** — N benchmarks run side by side, one
//!   per core, each in its own ASID-tagged address space, interleaved
//!   across the shared memory controllers (so they contend for the CTE
//!   cache and DRAM queues).
//! * **Virtualization** — optional 2D nested page walks
//!   (guest → host → machine-physical; CTE translation is the third
//!   layer underneath).
//! * **Phase churn** — workload parameter shifts at declared op
//!   boundaries, stressing promotion/demotion and the background
//!   compressor.
//! * **Memory pressure** — scheduled free-target squeezes (ballooning)
//!   forcing compaction bursts mid-run.
//!
//! A scenario is described by a compact spec string (the
//! `DYLECT_SCENARIO` environment variable):
//!
//! ```text
//! tenants=omnetpp,mcf;nested=1;phase@256000=theta:0.99,hot:0.2;pressure@512000=256
//! ```
//!
//! Segments are `;`-separated. `tenants=` (required, once) lists the
//! co-scheduled benchmarks; `nested=` (optional) turns on 2D walks;
//! `phase@<op>=` applies a [`PhaseShift`] (keys `tenant:<idx>` to target
//! one tenant — default all — plus `hot:`, `theta:`, `write:`,
//! `stream:`); `pressure@<op>=<pages>` raises every MC's free target by
//! `<pages>` for one reclamation burst. Event offsets count retired ops
//! from the start of the *measurement window*, must be positive
//! multiples of [`EVENT_ALIGN_OPS`] (the run loop's drain cadence), and
//! must be strictly increasing. Parsing is strict: garbage
//! anywhere is an error, never a silent default.
//!
//! Scenario runs inherit every determinism guarantee of the plain
//! system: byte-identical reports for any `DYLECT_JOBS`, exact resume
//! from a warmup snapshot (events re-fire at the same boundaries), and
//! digest-auditable windows under `DYLECT_DIGEST=1`. With a single
//! tenant, no events, and `nested=0`, a scenario run is bit-compatible
//! with the plain single-process run.

use dylect_sim::{RunReport, SchemeKind, System, SystemConfig, TenantSummary};
use dylect_sim_core::snap::SnapError;
use dylect_workloads::{BenchmarkSpec, CompressionSetting, PhaseShift};

/// Scenario event offsets must be multiples of the run loop's drain
/// cadence (mirrors `dylect_sim_core::digest::WINDOW_ALIGN_OPS`), so
/// every event lands on a drain and digest-window boundary.
pub const EVENT_ALIGN_OPS: u64 = 256;

/// One scheduled scenario event.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioEvent {
    /// Retired ops into the measurement window at which the event fires.
    pub at_op: u64,
    /// What happens at the boundary.
    pub action: ScenarioAction,
}

/// The action an event performs.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioAction {
    /// Shift one tenant's (or every tenant's) workload parameters.
    Phase {
        /// Target tenant index, or `None` for all tenants.
        tenant: Option<usize>,
        /// The parameter shift.
        shift: PhaseShift,
    },
    /// Raise every MC's free target by this many pages (ballooning),
    /// forcing a reclamation/compaction burst.
    Pressure {
        /// Extra pages each MC must free beyond its normal target.
        extra_free_pages: u64,
    },
}

impl ScenarioEvent {
    /// Canonical spec-string segment for this event.
    fn to_segment(&self) -> String {
        match &self.action {
            ScenarioAction::Phase { tenant, shift } => {
                let mut kv = Vec::new();
                if let Some(t) = tenant {
                    kv.push(format!("tenant:{t}"));
                }
                if let Some(h) = shift.hot_fraction {
                    kv.push(format!("hot:{h}"));
                }
                if let Some(t) = shift.zipf_theta {
                    kv.push(format!("theta:{t}"));
                }
                if let Some(w) = shift.write_fraction {
                    kv.push(format!("write:{w}"));
                }
                if let Some(s) = shift.stream_fraction {
                    kv.push(format!("stream:{s}"));
                }
                format!("phase@{}={}", self.at_op, kv.join(","))
            }
            ScenarioAction::Pressure { extra_free_pages } => {
                format!("pressure@{}={}", self.at_op, extra_free_pages)
            }
        }
    }
}

/// A parsed, validated scenario description.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Co-scheduled benchmark names (validated against the suite).
    pub tenants: Vec<String>,
    /// Whether cores perform 2D nested page walks.
    pub nested: bool,
    /// Scheduled events, strictly increasing in `at_op`.
    pub events: Vec<ScenarioEvent>,
}

impl ScenarioSpec {
    /// A plain scenario over one benchmark: no co-tenants, no nesting,
    /// no events. Running it reproduces the single-process run
    /// byte-identically.
    pub fn solo(benchmark: &str) -> Result<ScenarioSpec, String> {
        let spec = ScenarioSpec {
            tenants: vec![benchmark.to_owned()],
            nested: false,
            events: Vec::new(),
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Parses a spec string (see the crate docs for the grammar).
    /// Strict: every malformed segment, unknown key, out-of-range value,
    /// or mis-ordered event is an error.
    pub fn parse(raw: &str) -> Result<ScenarioSpec, String> {
        let raw = raw.trim();
        if raw.is_empty() {
            return Err("scenario spec is empty (unset DYLECT_SCENARIO to disable)".to_owned());
        }
        let mut tenants: Option<Vec<String>> = None;
        let mut nested: Option<bool> = None;
        let mut events: Vec<ScenarioEvent> = Vec::new();
        for segment in raw.split(';') {
            let segment = segment.trim();
            if segment.is_empty() {
                return Err("empty segment (stray `;`) in scenario spec".to_owned());
            }
            let (head, value) = segment
                .split_once('=')
                .ok_or_else(|| format!("segment `{segment}` is not `key=value`"))?;
            match head.split_once('@') {
                None => match head {
                    "tenants" => {
                        if tenants.is_some() {
                            return Err("`tenants=` given twice".to_owned());
                        }
                        tenants = Some(Self::parse_tenants(value)?);
                    }
                    "nested" => {
                        if nested.is_some() {
                            return Err("`nested=` given twice".to_owned());
                        }
                        nested = Some(match value {
                            "0" | "false" => false,
                            "1" | "true" => true,
                            other => {
                                return Err(format!(
                                    "`nested=` must be one of 1/true/0/false, got `{other}`"
                                ))
                            }
                        });
                    }
                    other => return Err(format!("unknown scenario key `{other}`")),
                },
                Some((kind, at)) => {
                    let at_op = Self::parse_at_op(at, events.last().map(|e| e.at_op))?;
                    let action = match kind {
                        "phase" => Self::parse_phase(value)?,
                        "pressure" => Self::parse_pressure(value)?,
                        other => return Err(format!("unknown scenario event `{other}@`")),
                    };
                    events.push(ScenarioEvent { at_op, action });
                }
            }
        }
        let spec = ScenarioSpec {
            tenants: tenants.ok_or("scenario spec needs a `tenants=` segment")?,
            nested: nested.unwrap_or(false),
            events,
        };
        spec.validate()?;
        Ok(spec)
    }

    fn parse_tenants(value: &str) -> Result<Vec<String>, String> {
        let names: Vec<String> = value
            .split(',')
            .map(|n| n.trim().to_owned())
            .collect::<Vec<_>>();
        if names.iter().any(String::is_empty) {
            return Err(format!("`tenants={value}` has an empty benchmark name"));
        }
        Ok(names)
    }

    fn parse_at_op(at: &str, prev: Option<u64>) -> Result<u64, String> {
        let at_op: u64 = at
            .parse()
            .map_err(|_| format!("event offset `@{at}` is not an integer"))?;
        if at_op == 0 || !at_op.is_multiple_of(EVENT_ALIGN_OPS) {
            return Err(format!(
                "event offset `@{at_op}` must be a positive multiple of {EVENT_ALIGN_OPS}"
            ));
        }
        if let Some(prev) = prev {
            if at_op <= prev {
                return Err(format!(
                    "event offsets must be strictly increasing (`@{at_op}` after `@{prev}`)"
                ));
            }
        }
        Ok(at_op)
    }

    fn parse_phase(value: &str) -> Result<ScenarioAction, String> {
        let mut tenant: Option<usize> = None;
        let mut shift = PhaseShift::default();
        for kv in value.split(',') {
            let (key, v) = kv
                .split_once(':')
                .ok_or_else(|| format!("phase entry `{kv}` is not `key:value`"))?;
            let fraction = |name: &str, lo: f64, hi: f64| -> Result<f64, String> {
                let f: f64 = v
                    .parse()
                    .map_err(|_| format!("phase `{name}:` value `{v}` is not a number"))?;
                if !f.is_finite() || f < lo || f > hi {
                    return Err(format!(
                        "phase `{name}:` must be in [{lo}, {hi}], got `{v}`"
                    ));
                }
                Ok(f)
            };
            let dup = |set: bool, name: &str| -> Result<(), String> {
                if set {
                    Err(format!("phase `{name}:` given twice"))
                } else {
                    Ok(())
                }
            };
            match key {
                "tenant" => {
                    dup(tenant.is_some(), key)?;
                    tenant = Some(v.parse().map_err(|_| {
                        format!("phase `tenant:` value `{v}` is not a tenant index")
                    })?);
                }
                "hot" => {
                    dup(shift.hot_fraction.is_some(), key)?;
                    // A zero hot fraction would clamp to one region anyway;
                    // require an honest positive value.
                    let f = fraction(key, 0.0, 1.0)?;
                    if f == 0.0 {
                        return Err("phase `hot:` must be positive".to_owned());
                    }
                    shift.hot_fraction = Some(f);
                }
                "theta" => {
                    dup(shift.zipf_theta.is_some(), key)?;
                    shift.zipf_theta = Some(fraction(key, 0.0, 4.0)?);
                }
                "write" => {
                    dup(shift.write_fraction.is_some(), key)?;
                    shift.write_fraction = Some(fraction(key, 0.0, 1.0)?);
                }
                "stream" => {
                    dup(shift.stream_fraction.is_some(), key)?;
                    shift.stream_fraction = Some(fraction(key, 0.0, 1.0)?);
                }
                other => return Err(format!("unknown phase key `{other}:`")),
            }
        }
        if shift.is_empty() {
            return Err("a phase event must shift at least one parameter".to_owned());
        }
        Ok(ScenarioAction::Phase { tenant, shift })
    }

    fn parse_pressure(value: &str) -> Result<ScenarioAction, String> {
        match value.parse::<u64>() {
            Ok(0) => Err("pressure must free a positive number of pages".to_owned()),
            Ok(extra_free_pages) => Ok(ScenarioAction::Pressure { extra_free_pages }),
            Err(_) => Err(format!("pressure value `{value}` is not a page count")),
        }
    }

    /// Cross-field validation shared by [`parse`](Self::parse) and the
    /// programmatic constructors.
    fn validate(&self) -> Result<(), String> {
        if self.tenants.is_empty() {
            return Err("scenario needs at least one tenant".to_owned());
        }
        if self.tenants.len() > u16::MAX as usize {
            return Err("too many tenants".to_owned());
        }
        for name in &self.tenants {
            if BenchmarkSpec::by_name(name).is_none() {
                return Err(format!("unknown benchmark `{name}` in `tenants=`"));
            }
        }
        for ev in &self.events {
            if let ScenarioAction::Phase {
                tenant: Some(t), ..
            } = ev.action
            {
                if t >= self.tenants.len() {
                    return Err(format!(
                        "phase `tenant:{t}` out of range for {} tenants",
                        self.tenants.len()
                    ));
                }
            }
        }
        Ok(())
    }

    /// The canonical spec string: `Self::parse(&self.to_spec_string())`
    /// reproduces `self`. Used to fold the scenario into report-cache
    /// fingerprints and artifact labels.
    pub fn to_spec_string(&self) -> String {
        let mut parts = vec![format!("tenants={}", self.tenants.join(","))];
        if self.nested {
            parts.push("nested=1".to_owned());
        }
        parts.extend(self.events.iter().map(ScenarioEvent::to_segment));
        parts.join(";")
    }

    /// The resolved benchmark specs, in tenant order.
    pub fn resolve(&self) -> Vec<BenchmarkSpec> {
        self.tenants
            .iter()
            .map(|n| BenchmarkSpec::by_name(n).expect("validated at parse"))
            .collect()
    }

    /// Adapts a base single-process configuration to this scenario:
    /// one core per tenant, the nested-walk toggle, and DRAM sized for
    /// the combined footprint at `setting`.
    pub fn configure(&self, mut base: SystemConfig, setting: CompressionSetting) -> SystemConfig {
        let tenants = self.resolve();
        base.cores = tenants.len();
        base.core.nested_walk = self.nested;
        base.dram_bytes = tenants
            .iter()
            .map(|t| match base.scheme {
                SchemeKind::NoCompression => t.dram_bytes_no_compression(base.scale),
                _ => t.dram_bytes(setting, base.scale),
            })
            .sum();
        base
    }

    /// Builds the multi-tenant system for this scenario. `config` should
    /// come from [`configure`](Self::configure) (or agree with it on
    /// `cores` and `nested_walk`).
    pub fn build_system(&self, config: SystemConfig) -> System {
        System::new_tenants(config, &self.resolve())
    }

    /// Runs warmup then the segmented measurement window, firing events
    /// at their declared boundaries.
    pub fn run(&self, sys: &mut System, warmup_ops: u64, measure_ops: u64) -> ScenarioOutcome {
        sys.warm_up(warmup_ops);
        sys.start_measurement();
        self.drive(sys, measure_ops)
    }

    /// Resumes a warmed snapshot (from
    /// [`System::warm_up_and_snapshot`]) and replays the same segmented
    /// measurement window — events re-fire at the same boundaries, so
    /// the outcome is byte-identical to the straight run.
    pub fn resume(
        &self,
        sys: &mut System,
        snapshot: &[u8],
        measure_ops: u64,
    ) -> Result<ScenarioOutcome, SnapError> {
        sys.restore_warmed(snapshot)?;
        Ok(self.drive(sys, measure_ops))
    }

    /// The segmented measurement loop: execute to each event boundary,
    /// fire the event, record the segment, then run out the window.
    /// Events at or past `measure_ops` never fire.
    fn drive(&self, sys: &mut System, measure_ops: u64) -> ScenarioOutcome {
        let mut segments = Vec::new();
        let mut done = 0u64;
        for ev in &self.events {
            if ev.at_op >= measure_ops {
                break;
            }
            sys.execute(ev.at_op - done);
            done = ev.at_op;
            match &ev.action {
                ScenarioAction::Phase { tenant, shift } => match tenant {
                    Some(t) => sys.apply_phase_shift(*t, shift),
                    None => {
                        for t in 0..self.tenants.len() {
                            sys.apply_phase_shift(t, shift);
                        }
                    }
                },
                ScenarioAction::Pressure { extra_free_pages } => {
                    sys.apply_pressure(*extra_free_pages);
                }
            }
            segments.push(SegmentRecord {
                at_op: done,
                label: ev.to_segment(),
                pingpong_pages: pingpong_pages(sys),
            });
        }
        sys.execute(measure_ops - done);
        let report = sys.finish();
        segments.push(SegmentRecord {
            at_op: measure_ops,
            label: "end".to_owned(),
            pingpong_pages: pingpong_pages(sys),
        });
        ScenarioOutcome {
            report,
            tenants: sys.tenant_summaries(),
            segments,
        }
    }
}

/// Pages the telemetry provenance tracker currently classifies as
/// ping-ponging; 0 when telemetry shadow probes are off.
fn pingpong_pages(sys: &System) -> u64 {
    sys.telemetry()
        .filter(|t| t.config().shadow)
        .map_or(0, |t| t.provenance().pingpong_pages())
}

/// One scenario-event boundary, recorded as it fired.
#[derive(Clone, Debug, PartialEq)]
pub struct SegmentRecord {
    /// Ops into the measurement window (the event's `at_op`; the final
    /// record is the window end).
    pub at_op: u64,
    /// The canonical event text (`"end"` for the closing record).
    pub label: String,
    /// Cumulative ping-ponging pages at this boundary (telemetry shadow
    /// on), for the per-phase churn metric: diff consecutive records.
    pub pingpong_pages: u64,
}

/// A completed scenario run.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioOutcome {
    /// The aggregate report (same shape as a plain run).
    pub report: RunReport,
    /// Per-tenant summaries for fairness/interference analysis.
    pub tenants: Vec<TenantSummary>,
    /// Event boundaries in firing order, closed by an `"end"` record.
    pub segments: Vec<SegmentRecord>,
}

impl ScenarioOutcome {
    /// Per-tenant slowdown versus solo instructions-per-second
    /// baselines (`solo_ips[i]` is tenant `i` running alone): > 1 means
    /// the co-run hurt that tenant. Fairness is the spread of these.
    pub fn slowdowns(&self, solo_ips: &[f64]) -> Vec<f64> {
        assert_eq!(
            solo_ips.len(),
            self.tenants.len(),
            "one baseline per tenant"
        );
        self.tenants
            .iter()
            .zip(solo_ips)
            .map(|(t, &solo)| {
                if t.ips() > 0.0 {
                    solo / t.ips()
                } else {
                    f64::INFINITY
                }
            })
            .collect()
    }
}

/// Parses a `DYLECT_SCENARIO` value: unset means no scenario
/// (`Ok(None)`); anything present — including an empty string — must be
/// a valid spec.
pub fn parse_scenario(raw: Option<&str>) -> Result<Option<ScenarioSpec>, String> {
    match raw {
        None => Ok(None),
        Some(raw) => ScenarioSpec::parse(raw)
            .map(Some)
            .map_err(|e| format!("DYLECT_SCENARIO: {e}")),
    }
}

/// [`parse_scenario`] against the live environment; a malformed value
/// prints a usage message and exits with status 2.
pub fn scenario_from_env() -> Option<ScenarioSpec> {
    let raw = std::env::var("DYLECT_SCENARIO").ok();
    match parse_scenario(raw.as_deref()) {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("usage: {msg}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str =
        "tenants=omnetpp,mcf;nested=1;phase@256000=theta:0.99,hot:0.2;pressure@512000=256";

    #[test]
    fn parses_the_full_grammar() {
        let spec = ScenarioSpec::parse(SPEC).expect("valid");
        assert_eq!(spec.tenants, ["omnetpp", "mcf"]);
        assert!(spec.nested);
        assert_eq!(spec.events.len(), 2);
        assert_eq!(
            spec.events[0],
            ScenarioEvent {
                at_op: 256_000,
                action: ScenarioAction::Phase {
                    tenant: None,
                    shift: PhaseShift {
                        zipf_theta: Some(0.99),
                        hot_fraction: Some(0.2),
                        ..PhaseShift::default()
                    },
                },
            }
        );
        assert_eq!(
            spec.events[1],
            ScenarioEvent {
                at_op: 512_000,
                action: ScenarioAction::Pressure {
                    extra_free_pages: 256
                },
            }
        );
    }

    #[test]
    fn canonical_string_round_trips() {
        let spec = ScenarioSpec::parse(SPEC).expect("valid");
        let canonical = spec.to_spec_string();
        assert_eq!(ScenarioSpec::parse(&canonical).expect("valid"), spec);
        // Canonical form is a fixed point.
        assert_eq!(
            ScenarioSpec::parse(&canonical).unwrap().to_spec_string(),
            canonical
        );
    }

    #[test]
    fn tenant_scoped_phase_round_trips() {
        let raw = "tenants=omnetpp,mcf;phase@512=tenant:1,write:0.5";
        let spec = ScenarioSpec::parse(raw).expect("valid");
        assert_eq!(
            spec.events[0].action,
            ScenarioAction::Phase {
                tenant: Some(1),
                shift: PhaseShift {
                    write_fraction: Some(0.5),
                    ..PhaseShift::default()
                },
            }
        );
        assert_eq!(spec.to_spec_string(), raw);
    }

    #[test]
    fn rejects_malformed_specs() {
        for (raw, why) in [
            ("", "empty spec"),
            ("   ", "blank spec"),
            ("nested=1", "missing tenants"),
            ("tenants=", "empty tenant name"),
            ("tenants=omnetpp,", "trailing comma"),
            ("tenants=nosuchbench", "unknown benchmark"),
            ("tenants=omnetpp;tenants=mcf", "tenants twice"),
            ("tenants=omnetpp;nested=2", "bad nested value"),
            ("tenants=omnetpp;nested=1;nested=1", "nested twice"),
            ("tenants=omnetpp;;nested=1", "stray semicolon"),
            ("tenants=omnetpp;bogus=1", "unknown key"),
            ("tenants=omnetpp;bogus@512=1", "unknown event"),
            ("tenants=omnetpp;phase@0=hot:0.5", "zero offset"),
            ("tenants=omnetpp;phase@100=hot:0.5", "unaligned offset"),
            ("tenants=omnetpp;phase@abc=hot:0.5", "non-numeric offset"),
            (
                "tenants=omnetpp;phase@512=hot:0.5;pressure@512=1",
                "non-increasing offsets",
            ),
            (
                "tenants=omnetpp;pressure@512=1;phase@256=hot:0.5",
                "decreasing offsets",
            ),
            ("tenants=omnetpp;phase@512=", "empty phase"),
            ("tenants=omnetpp;phase@512=hot", "phase entry without value"),
            ("tenants=omnetpp;phase@512=hot:x", "non-numeric fraction"),
            ("tenants=omnetpp;phase@512=hot:0", "zero hot fraction"),
            ("tenants=omnetpp;phase@512=hot:1.5", "fraction above range"),
            ("tenants=omnetpp;phase@512=hot:-0.1", "negative fraction"),
            ("tenants=omnetpp;phase@512=hot:inf", "non-finite fraction"),
            (
                "tenants=omnetpp;phase@512=hot:0.5,hot:0.6",
                "duplicate phase key",
            ),
            ("tenants=omnetpp;phase@512=frob:0.5", "unknown phase key"),
            ("tenants=omnetpp;phase@512=tenant:0", "shift-free phase"),
            (
                "tenants=omnetpp;phase@512=tenant:1,hot:0.5",
                "tenant index out of range",
            ),
            ("tenants=omnetpp;pressure@512=0", "zero pressure"),
            ("tenants=omnetpp;pressure@512=lots", "non-numeric pressure"),
            ("tenants=omnetpp;phase", "segment without ="),
        ] {
            assert!(
                ScenarioSpec::parse(raw).is_err(),
                "{why}: `{raw}` must not parse"
            );
        }
    }

    #[test]
    fn env_parser_distinguishes_unset_from_garbage() {
        assert_eq!(parse_scenario(None), Ok(None));
        assert!(parse_scenario(Some("")).is_err(), "empty is a usage error");
        assert!(parse_scenario(Some("garbage")).is_err());
        let spec = parse_scenario(Some("tenants=omnetpp")).expect("valid");
        assert_eq!(spec.expect("present").tenants, ["omnetpp"]);
    }

    fn quick_config(spec: &ScenarioSpec) -> SystemConfig {
        let first = BenchmarkSpec::by_name(&spec.tenants[0]).expect("in suite");
        let base = SystemConfig::quick(&first, SchemeKind::dylect(), CompressionSetting::High);
        spec.configure(base, CompressionSetting::High)
    }

    #[test]
    fn configure_sizes_the_system_for_the_tenant_mix() {
        let spec = ScenarioSpec::parse("tenants=omnetpp,mcf,canneal;nested=1").expect("valid");
        let cfg = quick_config(&spec);
        assert_eq!(cfg.cores, 3);
        assert!(cfg.core.nested_walk);
        let combined: u64 = spec
            .resolve()
            .iter()
            .map(|t| t.dram_bytes(CompressionSetting::High, cfg.scale))
            .sum();
        assert_eq!(cfg.dram_bytes, combined);
    }

    #[test]
    fn solo_scenario_reproduces_the_plain_run() {
        let spec = ScenarioSpec::solo("omnetpp").expect("in suite");
        let cfg = quick_config(&spec);
        let bench = BenchmarkSpec::by_name("omnetpp").expect("in suite");
        let plain = System::new(cfg.clone(), &bench).run(2_000, 6_000);
        let outcome = spec.run(&mut spec.build_system(cfg), 2_000, 6_000);
        assert_eq!(outcome.report, plain);
        assert_eq!(outcome.tenants.len(), 1);
        assert_eq!(outcome.segments.len(), 1, "only the end record");
        assert_eq!(outcome.segments[0].label, "end");
    }

    #[test]
    fn scenario_runs_are_deterministic_and_resume_exact() {
        let spec = ScenarioSpec::parse(
            "tenants=omnetpp,canneal;phase@1024=theta:0.2,hot:0.8;pressure@2048=128",
        )
        .expect("valid");
        let cfg = quick_config(&spec);

        let straight = spec.run(&mut spec.build_system(cfg.clone()), 2_000, 5_000);
        let repeat = spec.run(&mut spec.build_system(cfg.clone()), 2_000, 5_000);
        assert_eq!(straight, repeat);
        assert_eq!(straight.segments.len(), 3, "phase, pressure, end");

        let snap = spec.build_system(cfg.clone()).warm_up_and_snapshot(2_000);
        let resumed = spec
            .resume(&mut spec.build_system(cfg), &snap, 5_000)
            .expect("snapshot restores");
        assert_eq!(straight, resumed);
    }

    #[test]
    fn events_past_the_window_never_fire() {
        let spec = ScenarioSpec::parse("tenants=omnetpp;pressure@1048576=64").expect("valid");
        let cfg = quick_config(&spec);
        let outcome = spec.run(&mut spec.build_system(cfg.clone()), 1_000, 3_000);
        assert_eq!(outcome.segments.len(), 1, "only the end record");
        // And the run equals the event-free run outright.
        let plain = ScenarioSpec::solo("omnetpp").expect("in suite");
        let base = plain.run(&mut plain.build_system(cfg), 1_000, 3_000);
        assert_eq!(outcome.report, base.report);
    }

    #[test]
    fn slowdowns_compare_against_solo_baselines() {
        let spec = ScenarioSpec::parse("tenants=omnetpp,canneal").expect("valid");
        let cfg = quick_config(&spec);
        let outcome = spec.run(&mut spec.build_system(cfg), 2_000, 5_000);
        let solo: Vec<f64> = outcome.tenants.iter().map(|t| t.ips() * 2.0).collect();
        let slow = outcome.slowdowns(&solo);
        assert_eq!(slow.len(), 2);
        for s in slow {
            assert!((s - 2.0).abs() < 1e-9, "ips doubled baseline ⇒ slowdown 2");
        }
    }

    #[test]
    fn digest_capture_stays_consistent_across_jobs_and_resume() {
        // Process-global digest toggle: this test owns it for its scope.
        // The scenario crate's test binary is its own process, so this
        // cannot race the sim crate's digest tests.
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
        dylect_sim_core::digest::set_enabled(true);

        let spec =
            ScenarioSpec::parse("tenants=omnetpp,canneal;phase@1024=theta:0.2;pressure@2048=128")
                .expect("valid");
        let cfg = quick_config(&spec);
        let mut sys = spec.build_system(cfg);
        sys.set_digest_window(1024);
        spec.run(&mut sys, 2_000, 5_000);
        let digests = sys.take_digests();
        dylect_sim_core::digest::set_enabled(false);
        assert!(!digests.is_empty(), "windows were captured");
    }
}
