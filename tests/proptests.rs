//! Property-based tests on the core data structures and invariants.
//!
//! These run on the self-contained harness in `dylect_sim_core::check`
//! (the workspace builds offline, so no `proptest`). Each property draws
//! its inputs from a deterministic seeded generator; a failure prints the
//! seed to replay it with `DYLECT_CHECK_SEED=<seed> cargo test`.

use dylect_cache::{CacheConfig, SetAssocCache};
use dylect_compression::{bdi, fpc};
use dylect_core::GroupMap;
use dylect_memctl::freespace::{FreeSpace, Span};
use dylect_memctl::recency::RecencyList;
use dylect_sim_core::check::{forall, DEFAULT_CASES};
use dylect_sim_core::rng::{Rng, Zipf};
use dylect_sim_core::{prop_ensure, prop_ensure_eq, DramPageId, PageId, PAGE_BYTES};

/// FPC round-trips arbitrary word-aligned byte strings.
#[test]
fn fpc_roundtrip() {
    forall("fpc_roundtrip", DEFAULT_CASES, |g| {
        let words = g.vec(1, 127, |g| g.u64() as u32);
        let data: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let bits = fpc::compress(&data);
        prop_ensure_eq!(fpc::decompress(&bits, words.len()), data);
        Ok(())
    });
}

/// BDI round-trips arbitrary 64 B blocks and never inflates.
#[test]
fn bdi_roundtrip() {
    forall("bdi_roundtrip", DEFAULT_CASES, |g| {
        let block = g.vec(64, 64, |g| g.u64() as u8);
        let c = bdi::compress(&block);
        prop_ensure_eq!(&bdi::decompress(&c)[..], &block[..]);
        prop_ensure!(c.encoding.compressed_bytes() <= 64, "inflated block");
        Ok(())
    });
}

/// FreeSpace conserves bytes across arbitrary alloc/free interleavings
/// and re-coalesces completely.
#[test]
fn freespace_conservation() {
    forall("freespace_conservation", DEFAULT_CASES, |g| {
        let ops = g.vec(1, 299, |g| (g.u64() as u16, g.bool()));
        let pages = 8u64;
        let mut fs = FreeSpace::new();
        for i in 0..pages {
            fs.add_page(DramPageId::new(i));
        }
        let total = fs.free_bytes();
        let mut live: Vec<Span> = Vec::new();
        for (x, do_alloc) in ops {
            if do_alloc || live.is_empty() {
                let len = (x as u32 % 4096) + 1;
                if let Some(s) = fs.alloc_span(len) {
                    live.push(s);
                }
            } else {
                let idx = x as usize % live.len();
                fs.free_span(live.swap_remove(idx));
            }
            let live_bytes: u64 = live.iter().map(|s| s.len as u64).sum();
            prop_ensure_eq!(fs.free_bytes() + live_bytes, total);
        }
        for s in live.drain(..) {
            fs.free_span(s);
        }
        prop_ensure_eq!(fs.free_page_count() as u64, pages);
        Ok(())
    });
}

/// Allocated spans never overlap.
#[test]
fn freespace_no_overlap() {
    forall("freespace_no_overlap", DEFAULT_CASES, |g| {
        let lens = g.vec(1, 63, |g| g.range(1, 4095) as u32);
        let mut fs = FreeSpace::new();
        for i in 0..16 {
            fs.add_page(DramPageId::new(i));
        }
        let mut allocated: Vec<Span> = Vec::new();
        for len in lens {
            if let Some(s) = fs.alloc_span(len) {
                for other in &allocated {
                    if other.dram_page == s.dram_page {
                        let disjoint = s.offset + s.len <= other.offset
                            || other.offset + other.len <= s.offset;
                        prop_ensure!(disjoint, "{:?} overlaps {:?}", s, other);
                    }
                }
                allocated.push(s);
            }
        }
        Ok(())
    });
}

/// The recency list behaves exactly like a reference LRU sequence.
#[test]
fn recency_matches_model() {
    forall("recency_matches_model", DEFAULT_CASES, |g| {
        let touches = g.vec(1, 199, |g| g.u64_below(32));
        let mut list = RecencyList::new(32);
        let mut model: Vec<u64> = Vec::new();
        for t in touches {
            list.touch(PageId::new(t));
            model.retain(|&x| x != t);
            model.push(t);
            prop_ensure_eq!(list.len(), model.len());
            prop_ensure_eq!(list.tail().map(|p| p.index()), model.first().copied());
            prop_ensure_eq!(list.head().map(|p| p.index()), model.last().copied());
        }
        Ok(())
    });
}

/// LRU cache agrees with a reference model on hit/miss (single set,
/// fully associative).
#[test]
fn cache_matches_lru_model() {
    forall("cache_matches_lru_model", DEFAULT_CASES, |g| {
        let keys = g.vec(1, 299, |g| g.u64_below(64));
        let mut cache: SetAssocCache = SetAssocCache::new(CacheConfig::lru(8 * 64, 8, 64));
        let mut model: Vec<u64> = Vec::new();
        for key in keys {
            let hit = cache.access(key);
            let model_hit = model.contains(&key);
            prop_ensure_eq!(hit, model_hit);
            if hit {
                model.retain(|&x| x != key);
                model.push(key);
            } else {
                cache.fill(key, false, ());
                if model.len() == 8 {
                    model.remove(0);
                }
                model.push(key);
            }
        }
        Ok(())
    });
}

/// The group hash maps every OS page to a valid, aligned group, and
/// slot_of inverts dram_page.
#[test]
fn groupmap_inverts() {
    forall("groupmap_inverts", DEFAULT_CASES, |g| {
        let data_pages = g.range(3, 9_999);
        let page = g.u64_below(1_000_000);
        let gm = GroupMap::new(data_pages, 3);
        let p = PageId::new(page);
        let base = gm.hash(p);
        prop_ensure_eq!(base.index() % 3, 0);
        prop_ensure!(
            base.index() + 2 < (data_pages / 3) * 3,
            "group base {} beyond {} data pages",
            base.index(),
            data_pages
        );
        for s in 0..3u8 {
            prop_ensure_eq!(gm.slot_of(p, gm.dram_page(p, s)), Some(s));
        }
        Ok(())
    });
}

/// Zipf samples stay in range for arbitrary domains and skews.
#[test]
fn zipf_in_range() {
    forall("zipf_in_range", DEFAULT_CASES, |g| {
        let n = g.range(1, 99_999);
        let theta = g.f64_in(0.0, 1.5);
        let seed = g.u64();
        let z = Zipf::new(n, theta);
        let mut rng = Rng::new(seed);
        for _ in 0..50 {
            prop_ensure!(z.sample(&mut rng) < n, "sample out of range");
        }
        Ok(())
    });
}

/// Compressed sizes are stable, quantized, and bounded.
#[test]
fn profile_sizes_valid() {
    forall("profile_sizes_valid", DEFAULT_CASES, |g| {
        let ratio = g.f64_in(1.0, 8.0);
        let seed = g.u64();
        let page = g.u64();
        let p = dylect_compression::CompressibilityProfile::with_mean_ratio("p", ratio);
        let s = p.compressed_bytes(seed, PageId::new(page));
        prop_ensure!(s as u64 <= PAGE_BYTES, "size {s} above PAGE_BYTES");
        prop_ensure!(s >= 256, "size {s} below floor");
        prop_ensure_eq!(s % 256, 0);
        prop_ensure_eq!(s, p.compressed_bytes(seed, PageId::new(page)));
        Ok(())
    });
}

/// Workload streams stay inside their footprint for arbitrary seeds.
#[test]
fn workload_addresses_in_bounds() {
    forall("workload_addresses_in_bounds", DEFAULT_CASES, |g| {
        use dylect_workloads::{SyntheticWorkload, WorkloadParams};
        let seed = g.u64();
        let mut w = SyntheticWorkload::new(WorkloadParams::demo(), seed);
        let fp = w.params().footprint_pages;
        for _ in 0..200 {
            prop_ensure!(
                w.next_op().vaddr.page().index() < fp,
                "address escaped footprint"
            );
        }
        Ok(())
    });
}

/// Random memory-operation streams survive a trace write/read cycle
/// bit-exactly — every field, including `work` and both flag bits.
#[test]
fn trace_roundtrip() {
    forall("trace_roundtrip", DEFAULT_CASES, |g| {
        use dylect_sim_core::trace::MemOp;
        use dylect_sim_core::VirtAddr;
        use dylect_workloads::trace_io::{read_trace, write_trace};
        let ops = g.vec(0, 199, |g| MemOp {
            vaddr: VirtAddr::new(g.u64()),
            work: g.u64() as u16,
            write: g.bool(),
            dep_on_prev: g.bool(),
        });
        let mut buf = Vec::new();
        write_trace(&mut buf, &ops).expect("vec write cannot fail");
        prop_ensure_eq!(buf.len(), 16 + ops.len() * 11);
        let back = read_trace(&buf[..]).expect("own output must parse");
        prop_ensure_eq!(back, ops);
        // Truncating anywhere strictly inside the stream must error (the
        // header's count no longer matches the payload), never panic.
        let cut = (g.u64() as usize) % buf.len();
        prop_ensure!(read_trace(&buf[..cut]).is_err(), "truncated trace parsed");
        Ok(())
    });
}

/// The shadow 3C classification exactly partitions the misses of a *real*
/// set-associative cache: compulsory + capacity + conflict == misses, per
/// CTE-block kind and in total, for arbitrary key streams, arbitrary
/// interleavings of pre-gathered and unified lookups, policy-gated fills
/// (`fill_on_miss: false` paths), and recency-only touches.
#[test]
fn shadow_classes_partition_real_cache_misses() {
    use dylect_memctl::CteCacheGeometry;
    use dylect_sim_core::probe::{CteBlockKind, CteOp, CteRecord};
    use dylect_telemetry::McShadow;
    forall(
        "shadow_classes_partition_real_cache_misses",
        DEFAULT_CASES,
        |g| {
            // Small geometry so capacity and conflict misses actually occur.
            let ways = 1 << g.range(0, 3) as u32; // 1, 2, 4, or 8 ways
            let geometry = CteCacheGeometry {
                capacity_bytes: 16 * 64,
                ways,
                block_bytes: 64,
                group_size: 0,
                num_groups: 0,
            };
            let mut cache: SetAssocCache =
                SetAssocCache::new(CacheConfig::lru(geometry.capacity_bytes, ways, 64));
            let mut shadow = McShadow::new(geometry);
            let mut real_hits = [0u64; 2];
            let mut real_misses = [0u64; 2];
            let events = g.vec(1, 499, |g| (g.u64_below(96), g.u64_below(16)));
            for (key, action) in events {
                let kind = if key % 2 == 0 {
                    CteBlockKind::Pregathered
                } else {
                    CteBlockKind::Unified
                };
                let op = if action == 0 {
                    CteOp::Touch
                } else {
                    // The real cache is the source of truth for hit/miss; the
                    // shadow only observes. Every fourth lookup models a
                    // policy-gated path that skips the fill after a miss.
                    let hit = cache.access(key);
                    let fill_on_miss = action % 4 != 1;
                    if hit {
                        real_hits[kind.index()] += 1;
                    } else {
                        real_misses[kind.index()] += 1;
                        if fill_on_miss {
                            cache.fill(key, false, ());
                        }
                    }
                    CteOp::Lookup { hit, fill_on_miss }
                };
                shadow.record(&CteRecord { kind, op, key });
            }
            for kind in CteBlockKind::ALL {
                let c = shadow.classes(kind);
                prop_ensure_eq!(c.real_hits, real_hits[kind.index()]);
                prop_ensure_eq!(c.real_misses, real_misses[kind.index()]);
                prop_ensure!(
                    c.compulsory + c.capacity + c.conflict == c.real_misses,
                    "{}: 3C classes must partition the real misses",
                    kind.name()
                );
            }
            let t = shadow.classes_total();
            prop_ensure_eq!(t.real_misses, real_misses.iter().sum::<u64>());
            prop_ensure_eq!(t.compulsory + t.capacity + t.conflict, t.real_misses);
            Ok(())
        },
    );
}

/// Cycle accounting is conservative by construction: for any component
/// split that fits inside the end-to-end latency, `AccessRecord::new`
/// fills `Other` with exactly the unattributed residual, so the components
/// always sum to the total.
#[test]
fn access_record_conserves_cycles() {
    use dylect_sim_core::probe::{
        AccessComponent, AccessRecord, AccessScope, MemLevel, RequestClass, TranslationPath,
    };
    use dylect_sim_core::Time;
    forall("access_record_conserves_cycles", DEFAULT_CASES, |g| {
        let total = Time::from_ps(g.u64() % 1_000_000_000);
        // Carve random named-component shares out of the total; whatever
        // is left should land in `Other`.
        let mut remaining = total;
        let mut explicit = Time::ZERO;
        let mut parts = Vec::new();
        for &c in &[
            AccessComponent::CacheLookup,
            AccessComponent::CteFetch,
            AccessComponent::Decompression,
            AccessComponent::DramQueue,
            AccessComponent::DramService,
        ] {
            if g.bool() {
                let t = Time::from_ps(g.u64() % (remaining.as_ps() + 1));
                remaining = remaining.saturating_sub(t);
                explicit += t;
                parts.push((c, t));
            }
        }
        let rec = AccessRecord::new(
            AccessScope::Mem,
            RequestClass::Demand,
            MemLevel::Ml1,
            TranslationPath::LongCteHit,
            Time::ZERO,
            total,
            &parts,
        );
        prop_ensure_eq!(rec.attributed(), rec.total);
        prop_ensure_eq!(
            rec.components[AccessComponent::Other.index()],
            total.saturating_sub(explicit)
        );
        Ok(())
    });
}

/// Snapshotting at the warmup/measurement window boundary and restoring
/// onto a fresh system resumes the run *exactly*: across random schemes,
/// compression settings, MC counts, seeds, and window sizes — with
/// telemetry, shadow probing, and span sampling all enabled — the resumed
/// report and the re-serialized telemetry state are byte-identical to the
/// straight-through run's.
#[test]
fn snapshot_at_window_boundary_resumes_exactly() {
    use dylect_sim::{SchemeKind, System, SystemConfig};
    use dylect_sim_core::snap::SnapWriter;
    use dylect_workloads::{BenchmarkSpec, CompressionSetting};

    forall("snapshot_resume", 6, |g| {
        let spec = BenchmarkSpec::by_name("omnetpp").expect("in suite");
        let scheme = match g.u64_below(4) {
            0 => SchemeKind::NoCompression,
            1 => SchemeKind::tmcc(),
            2 => SchemeKind::NaiveDynamic,
            _ => SchemeKind::dylect(),
        };
        let setting = if g.bool() {
            CompressionSetting::High
        } else {
            CompressionSetting::Low
        };
        let label = scheme.label();
        let mut cfg = SystemConfig::quick(&spec, scheme, setting);
        cfg.memory_controllers = g.range(1, 3) as usize;
        cfg.seed = g.u64();
        let warmup = g.range(500, 4_000);
        let measure = g.range(1_000, 6_000);
        let build = || {
            let mut sys = System::new(cfg.clone(), &spec);
            sys.enable_telemetry(dylect_telemetry::TelemetryConfig {
                epoch_ops: 1_000,
                shadow: true,
                span_sample: 16,
                ..dylect_telemetry::TelemetryConfig::default()
            });
            sys
        };
        let telemetry_bytes = |sys: &mut System| {
            let t = sys.take_telemetry().expect("enabled");
            let mut w = SnapWriter::new();
            t.write_snapshot(&mut w);
            w.into_bytes()
        };
        let mut straight = build();
        let straight_report = straight.run(warmup, measure);
        let snap = build().warm_up_and_snapshot(warmup);
        let mut resumed = build();
        let resumed_report = resumed
            .resume_measurement(&snap, measure)
            .map_err(|e| format!("restore failed ({label}): {e}"))?;
        prop_ensure!(
            straight_report.to_cache_text() == resumed_report.to_cache_text(),
            "resumed run diverged (scheme {}, {} MCs, seed {:#x}, {warmup}+{measure} ops)",
            label,
            cfg.memory_controllers,
            cfg.seed
        );
        prop_ensure!(
            telemetry_bytes(&mut straight) == telemetry_bytes(&mut resumed),
            "telemetry state diverged after restore (scheme {label})"
        );
        Ok(())
    });
}

/// Damaged snapshots are rejected, never UB and never a panic: every
/// truncation and every header corruption is an error, and flipping an
/// arbitrary payload byte either restores cleanly or errors — it must not
/// panic the restore path.
#[test]
fn snapshot_rejects_damage_without_panicking() {
    use dylect_sim::{SchemeKind, System, SystemConfig};
    use dylect_workloads::{BenchmarkSpec, CompressionSetting};

    forall("snapshot_rejection", 6, |g| {
        let spec = BenchmarkSpec::by_name("omnetpp").expect("in suite");
        let mut cfg = SystemConfig::quick(&spec, SchemeKind::dylect(), CompressionSetting::High);
        cfg.seed = g.u64();
        let snap = System::new(cfg.clone(), &spec).warm_up_and_snapshot(1_000);
        // Truncation at an arbitrary point.
        let cut = (g.u64() as usize) % snap.len();
        prop_ensure!(
            System::new(cfg.clone(), &spec)
                .restore(&snap[..cut])
                .is_err(),
            "truncation at {cut} of {} accepted",
            snap.len()
        );
        // Header corruption (magic, version, or config fingerprint).
        let mut bad = snap.clone();
        let hdr = (g.u64() as usize) % 13;
        bad[hdr] ^= 1 + (g.u64() as u8 & 0x7f);
        prop_ensure!(
            System::new(cfg.clone(), &spec).restore(&bad).is_err(),
            "corrupt header byte {hdr} accepted"
        );
        // An arbitrary payload flip must not panic (it may legitimately
        // restore if it only changed a free counter value).
        let mut flipped = snap.clone();
        let at = 13 + (g.u64() as usize) % (snap.len() - 13);
        flipped[at] ^= 1 + (g.u64() as u8 & 0x7f);
        let _ = System::new(cfg.clone(), &spec).restore(&flipped);
        // The pristine snapshot still restores.
        System::new(cfg.clone(), &spec)
            .restore(&snap)
            .map_err(|e| format!("pristine snapshot rejected: {e}"))?;
        Ok(())
    });
}

/// Telemetry is observation-only: across random schemes, compression
/// settings, MC counts, window sizes, and seeds, a run with epoch sampling,
/// shadow probing, and span sampling on produces a report byte-identical
/// to the same run with telemetry off.
#[test]
fn telemetry_on_and_off_produce_identical_reports() {
    use dylect_sim::{SchemeKind, System, SystemConfig};
    use dylect_workloads::{BenchmarkSpec, CompressionSetting};

    forall("telemetry_on_vs_off", 6, |g| {
        let spec = BenchmarkSpec::by_name("omnetpp").expect("in suite");
        let scheme = match g.u64_below(4) {
            0 => SchemeKind::NoCompression,
            1 => SchemeKind::tmcc(),
            2 => SchemeKind::NaiveDynamic,
            _ => SchemeKind::dylect(),
        };
        let setting = if g.bool() {
            CompressionSetting::High
        } else {
            CompressionSetting::Low
        };
        let label = scheme.label();
        let mut cfg = SystemConfig::quick(&spec, scheme, setting);
        cfg.memory_controllers = g.range(1, 3) as usize;
        cfg.seed = g.u64();
        let warmup = g.range(0, 4_000);
        let measure = g.range(1_000, 6_000);
        let run = |telemetry: bool| {
            let mut sys = System::new(cfg.clone(), &spec);
            if telemetry {
                sys.enable_telemetry(dylect_telemetry::TelemetryConfig {
                    epoch_ops: 1_000,
                    shadow: true,
                    span_sample: 16,
                    ..dylect_telemetry::TelemetryConfig::default()
                });
            }
            sys.run(warmup, measure)
        };
        let plain = run(false);
        let observed = run(true);
        if plain.to_cache_text() != observed.to_cache_text() {
            return Err(format!(
                "telemetry changed the run (scheme {}, {} MCs, \
                 seed {:#x}, {warmup}+{measure} ops)",
                label, cfg.memory_controllers, cfg.seed
            ));
        }
        Ok(())
    });
}
