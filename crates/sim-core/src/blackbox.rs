//! `dylect-blackbox`: the always-on flight recorder.
//!
//! A crashing or diverging run should leave forensics, not just an assert
//! message. This module keeps a bounded ring of recent coarse events
//! (batch retirements, digest windows, writeback drains, checkpoint IO,
//! host phases) that is *always armed* — recording is a couple of relaxed
//! atomic stores, cheap enough to never gate — and dumps the rings as
//! JSONL when the process panics or a digest mismatch is detected.
//!
//! Rings are per-worker (threads hash onto [`NRINGS`] fixed rings of
//! [`RING_ENTRIES`] slots each) so recording never contends on a lock.
//! Slots are plain relaxed atomics: a dump racing a recorder may read a
//! torn slot, which is acceptable — this is crash forensics, not
//! accounting, and a dump normally runs when the sim has already stopped.
//!
//! Dumps land in `<dump_dir>/<label>.crash.jsonl` (default
//! `results/blackbox/`), one JSON object per line: a header row with the
//! dump reason, then every recorded event in global sequence order.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Slots per ring. Old events are overwritten in FIFO order.
pub const RING_ENTRIES: usize = 4096;

/// Fixed per-worker rings; thread ids hash onto these.
pub const NRINGS: usize = 8;

/// Coarse event classes the recorder understands. Each event carries two
/// `u64` operands whose meaning is per-kind (documented on the variant).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// A batch of ops retired: `a` = ops in the batch, `b` = ops still
    /// remaining in the execute call (0 when untracked).
    BatchRetire,
    /// A digest window captured: `a` = window index, `b` = folded digest.
    WindowDigest,
    /// A writeback drain: `a` = queued entries, `b` = controller count.
    DrainWriteback,
    /// Checkpoint written: `a` = bytes, `b` = config fingerprint.
    CheckpointSave,
    /// Checkpoint restored: `a` = bytes, `b` = config fingerprint.
    CheckpointRestore,
    /// Runner job started: `a` = label fingerprint, `b` = worker id.
    RunStart,
    /// Runner job finished: `a` = label fingerprint, `b` = worker id.
    RunEnd,
    /// Host profiler span: `a` = phase index, `b` = duration ns.
    HostPhase,
    /// Digest mismatch detected: `a` = window index, `b` = op index.
    DigestMismatch,
    /// Test-only perturbation hook fired: `a` = op index.
    PerturbFired,
    /// Free-form marker: both operands caller-defined.
    Mark,
}

/// Number of event kinds; [`EventKind::ALL`] is indexed by `idx()`.
pub const NKINDS: usize = 11;

impl EventKind {
    /// All kinds in wire order.
    pub const ALL: [EventKind; NKINDS] = [
        EventKind::BatchRetire,
        EventKind::WindowDigest,
        EventKind::DrainWriteback,
        EventKind::CheckpointSave,
        EventKind::CheckpointRestore,
        EventKind::RunStart,
        EventKind::RunEnd,
        EventKind::HostPhase,
        EventKind::DigestMismatch,
        EventKind::PerturbFired,
        EventKind::Mark,
    ];

    /// Dense wire index.
    #[inline]
    pub fn idx(self) -> usize {
        self as usize
    }

    /// Stable snake_case name used in crash dumps.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::BatchRetire => "batch_retire",
            EventKind::WindowDigest => "window_digest",
            EventKind::DrainWriteback => "drain_writeback",
            EventKind::CheckpointSave => "checkpoint_save",
            EventKind::CheckpointRestore => "checkpoint_restore",
            EventKind::RunStart => "run_start",
            EventKind::RunEnd => "run_end",
            EventKind::HostPhase => "host_phase",
            EventKind::DigestMismatch => "digest_mismatch",
            EventKind::PerturbFired => "perturb_fired",
            EventKind::Mark => "mark",
        }
    }
}

/// One ring slot: global sequence (0 = never written), packed
/// kind/thread, and the two operands.
struct Slot {
    seq: AtomicU64,
    meta: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_SLOT: Slot = Slot {
    seq: AtomicU64::new(0),
    meta: AtomicU64::new(0),
    a: AtomicU64::new(0),
    b: AtomicU64::new(0),
};

struct Ring {
    head: AtomicU64,
    slots: [Slot; RING_ENTRIES],
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_RING: Ring = Ring {
    head: AtomicU64::new(0),
    slots: [EMPTY_SLOT; RING_ENTRIES],
};

static RINGS: [Ring; NRINGS] = [EMPTY_RING; NRINGS];

/// Global event order stamp. Starts at 1 so `seq == 0` marks an
/// untouched slot.
static SEQ: AtomicU64 = AtomicU64::new(1);

static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn label_cell() -> &'static Mutex<String> {
    static LABEL: OnceLock<Mutex<String>> = OnceLock::new();
    LABEL.get_or_init(|| Mutex::new("unlabeled".to_owned()))
}

fn dump_dir_cell() -> &'static Mutex<PathBuf> {
    static DIR: OnceLock<Mutex<PathBuf>> = OnceLock::new();
    DIR.get_or_init(|| Mutex::new(PathBuf::from("results/blackbox")))
}

/// Records one event. Always armed: the cost is two relaxed
/// `fetch_add`s and four relaxed stores, with no branches on any
/// enable flag and no locks.
#[inline]
pub fn record(kind: EventKind, a: u64, b: u64) {
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let tid = TID.with(|t| *t);
    let ring = &RINGS[(tid as usize) % NRINGS];
    let slot = &ring.slots[(ring.head.fetch_add(1, Ordering::Relaxed) as usize) % RING_ENTRIES];
    slot.meta.store(
        (kind.idx() as u64) << 32 | (tid & 0xFFFF_FFFF),
        Ordering::Relaxed,
    );
    slot.a.store(a, Ordering::Relaxed);
    slot.b.store(b, Ordering::Relaxed);
    // Stamp seq last so a slot with a visible seq has (in the common,
    // quiescent-dump case) its payload already in place.
    slot.seq.store(seq, Ordering::Relaxed);
}

/// Sets the run label used for crash-dump filenames. Labels are
/// sanitized like runner cache keys: anything outside `[A-Za-z0-9._-]`
/// becomes `_`.
pub fn set_label(label: &str) {
    let clean: String = label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect();
    let clean = if clean.is_empty() {
        "unlabeled".to_owned()
    } else {
        clean
    };
    *label_cell().lock().unwrap_or_else(|e| e.into_inner()) = clean;
}

/// Overrides the dump directory (tests; the default is
/// `results/blackbox` under the working directory).
pub fn set_dump_dir(dir: PathBuf) {
    *dump_dir_cell().lock().unwrap_or_else(|e| e.into_inner()) = dir;
}

/// One event read back out of the rings.
#[derive(Clone, Debug)]
pub struct EventRow {
    /// Global order stamp (monotonically increasing across rings).
    pub seq: u64,
    /// Ring the event landed in.
    pub ring: usize,
    /// Recording thread's blackbox id.
    pub tid: u64,
    /// Event kind.
    pub kind: EventKind,
    /// First operand (per-kind meaning).
    pub a: u64,
    /// Second operand (per-kind meaning).
    pub b: u64,
}

/// Reads every recorded event, sorted by global sequence. Slots whose
/// kind index is out of range (torn writes) are skipped.
pub fn events() -> Vec<EventRow> {
    let mut rows = Vec::new();
    for (ring_idx, ring) in RINGS.iter().enumerate() {
        for slot in &ring.slots {
            let seq = slot.seq.load(Ordering::Relaxed);
            if seq == 0 {
                continue;
            }
            let meta = slot.meta.load(Ordering::Relaxed);
            let Some(&kind) = EventKind::ALL.get((meta >> 32) as usize) else {
                continue;
            };
            rows.push(EventRow {
                seq,
                ring: ring_idx,
                tid: meta & 0xFFFF_FFFF,
                kind,
                a: slot.a.load(Ordering::Relaxed),
                b: slot.b.load(Ordering::Relaxed),
            });
        }
    }
    rows.sort_by_key(|r| r.seq);
    rows
}

/// Zeroes every ring (tests only — real runs never clear forensics).
pub fn reset() {
    for ring in &RINGS {
        ring.head.store(0, Ordering::Relaxed);
        for slot in &ring.slots {
            slot.seq.store(0, Ordering::Relaxed);
        }
    }
}

/// Dumps the rings to `<dump_dir>/<label>.crash.jsonl` and returns the
/// path. The file is overwritten: the newest crash wins, keyed by label.
pub fn dump(reason: &str) -> std::io::Result<PathBuf> {
    let dir = dump_dir_cell()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone();
    let label = label_cell()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone();
    std::fs::create_dir_all(&dir)?;
    let rows = events();
    let mut out = String::with_capacity(64 + rows.len() * 64);
    let clean_reason: String = reason
        .chars()
        .map(|c| {
            if c.is_control() || c == '"' || c == '\\' {
                '_'
            } else {
                c
            }
        })
        .collect();
    out.push_str(&format!(
        "{{\"blackbox\": \"dump\", \"reason\": \"{clean_reason}\", \"label\": \"{label}\", \"events\": {}}}\n",
        rows.len()
    ));
    for r in rows {
        out.push_str(&format!(
            "{{\"seq\": {}, \"ring\": {}, \"tid\": {}, \"kind\": \"{}\", \"a\": {}, \"b\": {}}}\n",
            r.seq,
            r.ring,
            r.tid,
            r.kind.name(),
            r.a,
            r.b
        ));
    }
    let path = dir.join(format!("{label}.crash.jsonl"));
    std::fs::write(&path, out)?;
    Ok(path)
}

/// Installs (once per process) a panic hook that dumps the rings before
/// delegating to the previous hook, so any panic — test assert, worker
/// thread, proptest shrink — leaves a `.crash.jsonl` behind.
pub fn install_panic_hook() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            // Best-effort: a failing dump must never mask the panic.
            if let Ok(path) = dump("panic") {
                eprintln!("[blackbox] flight recorder dumped to {}", path.display());
            }
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// The rings are process-global; tests that reset or dump them
    /// serialize here.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: StdMutex<()> = StdMutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dylect-blackbox-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Points later dumps at a temp dir. Once a test has installed the
    /// panic hook, every later panic in this test process dumps — the
    /// `#[should_panic]` tests elsewhere in the crate included — and must
    /// not write into the source tree.
    fn park_dumps_in_temp() {
        set_dump_dir(std::env::temp_dir().join(format!("dylect-blackbox-{}", std::process::id())));
        set_label("sim-core-unit-tests");
    }

    #[test]
    fn kind_indices_are_dense_and_names_unique() {
        let mut names = std::collections::BTreeSet::new();
        for (i, kind) in EventKind::ALL.iter().enumerate() {
            assert_eq!(kind.idx(), i);
            assert!(names.insert(kind.name()), "dup name {}", kind.name());
        }
        assert_eq!(names.len(), NKINDS);
    }

    #[test]
    fn events_come_back_in_sequence_order_with_payload() {
        let _g = lock();
        reset();
        record(EventKind::RunStart, 0xAB, 2);
        record(EventKind::BatchRetire, 256, 256);
        record(EventKind::WindowDigest, 1, 0xFEED);
        let rows = events();
        assert_eq!(rows.len(), 3);
        assert!(rows.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(rows[0].kind, EventKind::RunStart);
        assert_eq!((rows[2].a, rows[2].b), (1, 0xFEED));
        reset();
    }

    #[test]
    fn ring_overwrites_oldest_beyond_capacity() {
        let _g = lock();
        reset();
        // All from one thread => one ring; overfill it by 10.
        for i in 0..(RING_ENTRIES as u64 + 10) {
            record(EventKind::Mark, i, 0);
        }
        let rows = events();
        assert_eq!(rows.len(), RING_ENTRIES, "bounded, never growing");
        // The survivors are the most recent RING_ENTRIES events.
        let min_a = rows.iter().map(|r| r.a).min().unwrap();
        assert_eq!(min_a, 10);
        reset();
    }

    #[test]
    fn dump_writes_a_header_and_every_event() {
        let _g = lock();
        reset();
        let dir = temp_dir("dump");
        set_dump_dir(dir.clone());
        set_label("omnetpp/dylect/high");
        record(EventKind::DigestMismatch, 7, 28672);
        let path = dump("digest-mismatch window 7").unwrap();
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            "omnetpp_dylect_high.crash.jsonl",
            "label sanitized into the filename"
        );
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = text.lines();
        let header = lines.next().unwrap();
        assert!(header.contains("\"blackbox\": \"dump\""), "{header}");
        assert!(header.contains("digest-mismatch window 7"), "{header}");
        assert!(
            text.contains("\"kind\": \"digest_mismatch\", \"a\": 7, \"b\": 28672"),
            "{text}"
        );
        park_dumps_in_temp();
        std::fs::remove_dir_all(&dir).ok();
        reset();
    }

    /// The acceptance-criteria test: a panic in a test harness leaves a
    /// non-empty blackbox dump behind.
    #[test]
    fn panic_hook_leaves_a_nonempty_crash_dump() {
        let _g = lock();
        reset();
        let dir = temp_dir("panic");
        set_dump_dir(dir.clone());
        set_label("panicking-harness");
        record(EventKind::BatchRetire, 256, 512);
        install_panic_hook();
        let result = std::panic::catch_unwind(|| {
            panic!("deliberate test panic");
        });
        assert!(result.is_err());
        let path = dir.join("panicking-harness.crash.jsonl");
        let text = std::fs::read_to_string(&path).expect("panic hook wrote a dump");
        assert!(!text.is_empty());
        assert!(text.contains("\"reason\": \"panic\""), "{text}");
        assert!(text.contains("\"kind\": \"batch_retire\""), "{text}");
        park_dumps_in_temp();
        std::fs::remove_dir_all(&dir).ok();
        reset();
    }
}
