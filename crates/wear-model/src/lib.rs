//! ReRAM endurance accounting and lifetime extrapolation.
//!
//! The Re-NUCA paper models an L3 cache built from metal-oxide ReRAM whose
//! cells survive a bounded number of writes (10⁹ [Wei+, IEDM'08] to 10¹¹
//! [Lee+, Nature Materials'11]; the paper's evaluation uses **10¹¹**). Every
//! write into an L3 bank — a fill after an L3 miss or a writeback from a
//! private L2 — consumes endurance of the physical line slot (set, way) it
//! lands in.
//!
//! This crate provides:
//!
//! * [`WearTracker`] — per-slot write counters for a banked cache,
//! * [`EnduranceSpec`] — the cell endurance budget,
//! * [`LifetimeModel`] — extrapolation of measured write *rates* to
//!   lifetime-in-years at a given core frequency, under either a
//!   uniform-intra-bank wear assumption (the paper's: intra-bank leveling is
//!   delegated to orthogonal schemes like i2wap/EqualChance) or a
//!   pessimistic max-slot assumption (our ablation),
//! * [`metrics`] — the aggregate statistics the paper reports: per-bank
//!   harmonic-mean lifetime across workloads, raw minimum lifetime, and
//!   lifetime variation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod endurance;
pub mod lifetime;
pub mod metrics;
pub mod tracker;

pub use endurance::EnduranceSpec;
pub use lifetime::{IntraBankWear, LifetimeModel};
pub use metrics::{
    capacity_retention, hmean_lifetime_per_bank, lifetime_variation, raw_min_lifetime,
};
pub use tracker::WearTracker;

/// Seconds in a (non-leap) year, used for all lifetime extrapolation.
pub const SECONDS_PER_YEAR: f64 = 365.0 * 24.0 * 3600.0;
