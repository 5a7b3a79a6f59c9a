//! Digest-stability matrix and first-divergence bisection demo.
//!
//! Default mode: runs the shared three-scheme matrix (2 memory
//! controllers) twice with state-digest capture forced on, and renders
//! whether every per-window digest stream is byte-stable from run to run —
//! the observability counterpart of the determinism suite. Streams land
//! under `--out DIR` (default `results/divergence`) as
//! `<benchmark>-<scheme>-run<n>.digest.jsonl`.
//!
//! `--bisect` instead demonstrates (and lets `tools/verify.sh` assert)
//! the full localization pipeline on a known fault: a base run and a run
//! with a single spurious L3-miss count injected at op
//! [`PERTURB_AT`] are compared window-by-window to find the first
//! diverging window and component, then re-executed with op-level digests
//! over that window to name the exact first diverging operation. On a
//! divergence the always-on flight recorder dumps its ring to
//! `results/blackbox/` for post-mortem context.
//!
//! Digest capture is process-global and the streams are the artifact, so
//! these jobs bypass the report cache like `fig_selfprofile`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use dylect_bench::runner::{Job, Runner};
use dylect_bench::{print_table, warmup_for, Mode, RunKey};
use dylect_sim::{SchemeKind, System};
use dylect_sim_core::blackbox;
use dylect_sim_core::digest::{self, first_difference, DigestRecord};
use dylect_workloads::{BenchmarkSpec, CompressionSetting};

/// Retired-op index where `--bisect` injects its one-bit fault. A
/// multiple of the 256-op drain cadence, so the window run and the op
/// replay fire it at the same op count; sits inside window 2, so
/// window 1 pins the agreement prefix.
const PERTURB_AT: u64 = 6_400;

/// Digest window length for these demos: op-scale resolution matters
/// more than throughput here, so every system shrinks its window from
/// the coarse production default (`digest::DEFAULT_WINDOW_OPS`).
const FIG_WINDOW: u64 = 4_096;

/// The stability matrix's two identical runs per scheme.
const RUNS: [usize; 2] = [1, 2];

fn write_stream(path: &Path, records: &[DigestRecord]) {
    let mut body = String::new();
    for r in records {
        body.push_str(&r.to_jsonl_line());
        body.push('\n');
    }
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(path, body) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("[fig_divergence] write failed {}: {e}", path.display()),
    }
}

/// First diverging record between two equal-length digest streams:
/// `(index, component)`.
fn first_divergence(a: &[DigestRecord], b: &[DigestRecord]) -> Option<(usize, String)> {
    a.iter()
        .zip(b)
        .enumerate()
        .find_map(|(i, (ra, rb))| first_difference(ra, rb).map(|c| (i, c)))
}

fn bisect(key: &RunKey, out_dir: &Path) -> u8 {
    // One agreement window, the perturbed window, and one window of
    // propagated divergence.
    let total = 3 * FIG_WINDOW;
    let run = |perturb: Option<u64>| {
        let mut sys = System::new(key.config(), &key.spec);
        sys.set_digest_window(FIG_WINDOW);
        sys.arm_perturb(perturb);
        sys.execute(total);
        sys.take_digests()
    };
    let base = run(None);
    let hurt = run(Some(PERTURB_AT));
    write_stream(&out_dir.join("bisect-base.digest.jsonl"), &base);
    write_stream(&out_dir.join("bisect-perturbed.digest.jsonl"), &hurt);

    let Some((wi, component)) = first_divergence(&base, &hurt) else {
        println!("streams are identical: the injected perturbation was not observed");
        return 1;
    };
    let window = hurt[wi].window;
    println!("first diverging window: {window} (component {component})");
    blackbox::record(blackbox::EventKind::DigestMismatch, window, 0);

    // Op-level refinement: re-execute both runs from cold up to the end
    // of the diverging window, capturing a digest after every op.
    let end = hurt[wi].ops_retired;
    let replay = |perturb: Option<u64>| {
        let mut sys = System::new(key.config(), &key.spec);
        sys.set_digest_window(FIG_WINDOW);
        sys.arm_perturb(perturb);
        sys.execute_op_digests(end, 0);
        sys.take_digests()
    };
    let base_ops = replay(None);
    let hurt_ops = replay(Some(PERTURB_AT));
    write_stream(&out_dir.join("bisect-base.opdigest.jsonl"), &base_ops);
    write_stream(&out_dir.join("bisect-perturbed.opdigest.jsonl"), &hurt_ops);

    let Some((oi, op_component)) = first_divergence(&base_ops, &hurt_ops) else {
        println!("op replay did not reproduce the window divergence");
        return 1;
    };
    let op = hurt_ops[oi].op.expect("op-level records carry op indices");
    println!("first diverging op: {op} (component {op_component})");
    // Re-record the verdict just before dumping: the op-level replay above
    // logged one ring event per captured op, which can flush the
    // window-time mismatch record out of the bounded ring.
    blackbox::record(blackbox::EventKind::DigestMismatch, window, op);
    match blackbox::dump("digest-mismatch") {
        Ok(p) => println!("flight recorder dumped to {}", p.display()),
        Err(e) => eprintln!("[fig_divergence] blackbox dump failed: {e}"),
    }

    // The demo localized the fault iff it names the injection exactly.
    if op == PERTURB_AT && op_component == "cache" {
        println!("bisect ok: localized the injected fault to op {PERTURB_AT}, component cache");
        0
    } else {
        println!(
            "bisect FAILED: expected op {PERTURB_AT} component cache, \
             got op {op} component {op_component}"
        );
        1
    }
}

fn main() {
    let mode = Mode::from_env();
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let bench = flag("--bench").unwrap_or_else(|| "omnetpp".to_owned());
    let out_dir = PathBuf::from(flag("--out").unwrap_or_else(|| "results/divergence".to_owned()));
    let spec = BenchmarkSpec::by_name(&bench).unwrap_or_else(|| {
        eprintln!("unknown benchmark {bench}");
        std::process::exit(2);
    });
    let setting = CompressionSetting::High;

    // from_env() strict-parses DYLECT_DIGEST and installs the panic hook;
    // this binary then forces capture on — the digest streams *are* its
    // output.
    let runner = Runner::from_env();
    digest::set_enabled(true);
    blackbox::set_label(&format!("fig_divergence-{bench}"));

    if args.iter().any(|a| a == "--bisect") {
        let key = RunKey::new(spec, SchemeKind::dylect(), setting, mode);
        std::process::exit(bisect(&key, &out_dir) as i32);
    }

    // Stability matrix: per-window digests must be byte-identical between
    // two identical runs of every scheme.
    type StreamsByRun = BTreeMap<(String, usize), Vec<DigestRecord>>;
    let outputs: Arc<Mutex<StreamsByRun>> = Arc::default();
    let mut jobs = Vec::new();
    for scheme in [
        SchemeKind::tmcc(),
        SchemeKind::NaiveDynamic,
        SchemeKind::dylect(),
    ] {
        for run in RUNS {
            let key = RunKey::new(spec.clone(), scheme.clone(), setting, mode).with_mcs(2);
            let label = key.scheme.label();
            let outputs = outputs.clone();
            jobs.push(Job {
                label: format!("{}/{label}/digest-run{run}", spec.name),
                // A cache hit skips execution and would record no digests.
                cache_name: None,
                work: Box::new(move || {
                    let warmup = warmup_for(&key.spec, key.mode);
                    let mut sys = System::new(key.config(), &key.spec);
                    sys.set_digest_window(FIG_WINDOW);
                    let report = sys.run(warmup, key.mode.measure_ops);
                    outputs
                        .lock()
                        .unwrap()
                        .insert((label.clone(), run), sys.take_digests());
                    report
                }),
            });
        }
    }
    runner.run_jobs(jobs);

    let outputs = outputs.lock().unwrap();
    let mut rows = Vec::new();
    let mut unstable = 0usize;
    for scheme in ["tmcc", "naive", "dylect"] {
        // Scheme labels come from SchemeKind::label(); look them up loosely
        // so a label tweak fails visibly rather than silently skipping.
        let of_run = |n: usize| {
            outputs
                .iter()
                .find(|((l, r), _)| l.contains(scheme) && *r == n)
                .map(|(_, v)| v)
        };
        let (Some(a), Some(b)) = (of_run(RUNS[0]), of_run(RUNS[1])) else {
            eprintln!("[fig_divergence] missing output for scheme {scheme}");
            unstable += 1;
            continue;
        };
        for (n, stream) in [(RUNS[0], a), (RUNS[1], b)] {
            write_stream(
                &out_dir.join(format!("{}-{scheme}-run{n}.digest.jsonl", spec.name)),
                stream,
            );
        }
        let verdict = if a.len() != b.len() {
            unstable += 1;
            format!("UNSTABLE (window counts {} vs {})", a.len(), b.len())
        } else {
            match first_divergence(a, b) {
                None => "stable".to_owned(),
                Some((i, comp)) => {
                    unstable += 1;
                    blackbox::record(blackbox::EventKind::DigestMismatch, a[i].window, 0);
                    let _ = blackbox::dump("digest-mismatch");
                    format!("UNSTABLE at window {} ({comp})", a[i].window)
                }
            }
        };
        rows.push(vec![scheme.to_owned(), a.len().to_string(), verdict]);
    }
    print_table(
        &format!(
            "Digest stability between two identical runs ({}, high compression, 2 MCs)",
            spec.name
        ),
        &["scheme", "windows", "run1 vs run2"],
        &rows,
    );
    if unstable == 0 {
        println!(
            "digest stability: {}/{} schemes stable",
            rows.len(),
            rows.len()
        );
    } else {
        println!("digest stability: {unstable} scheme(s) UNSTABLE");
        std::process::exit(1);
    }
}
