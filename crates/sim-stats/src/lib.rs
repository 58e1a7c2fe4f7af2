//! Statistics infrastructure for the Re-NUCA simulation stack.
//!
//! This crate is deliberately free of any simulator-specific concepts: it
//! provides the counters, histograms, summary mathematics (arithmetic and
//! harmonic means, min/max, coefficient of variation), a
//! hand-rolled stable-key-order JSON emitter and matching parser, and the
//! plain-text table/bar-chart rendering that the experiment harness uses to
//! print paper-style figures and tables.
//!
//! Everything here is `#![forbid(unsafe_code)]` and allocation-conscious:
//! counters are plain integers, histograms use fixed log2 bucketing, and the
//! registry keeps insertion order so dumps are deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counter;
pub mod histogram;
pub mod json;
pub mod registry;
pub mod render;
pub mod summary;

pub use counter::Counter;
pub use histogram::Histogram;
pub use json::{JsonObject, JsonValue};
pub use registry::{StatValue, StatsRegistry};
pub use render::{bar_chart, grouped_series, Table};
pub use summary::{amean, cv, hmean, max_f64, min_f64, percent_change, stdev};
