//! End-to-end and per-layer benchmark of the DyLeCT reproduction.
//!
//! Each workload is a TMCC/DyLeCT cell pair run through the same public
//! path as the figure binaries (`config_for` / `warmup_for` →
//! `System::new` → `System::run`). The untraced run times whole cells; the
//! traced run re-assembles the same cells around a timing wrapper and
//! splits host time into layers from outside the simulator. See
//! `README.md` in this directory for the metrics and what they mean.

pub mod cells;
pub mod measure;
pub mod trace;
