//! Observability renderers for the PADS data path.
//!
//! Every observation goes through one attachment: the dense-ID
//! [`MetricsCore`] a cursor carries ([`pads_runtime::metrics`]). The core
//! keys everything by node id; this crate joins the names in and renders:
//!
//! * [`metrics::MetricsSink`] — per-type hit counts and byte spans,
//!   error counts by code, record throughput, and latency summaries,
//!   exposed in Prometheus text format and JSON;
//! * [`trace::TraceSink`] — the depth-bounded span tree the core's trace
//!   recorded ([`MetricsCore::with_trace`]), showing exactly how each
//!   record was consumed, dumped as JSONL or rendered text.
//!
//! Both parsing engines (the `pads-core` interpreter and
//! `pads-codegen`-generated modules) emit identical event streams for
//! the same input, so a renderer never needs to know which engine ran.
//!
//! ```
//! use pads_observe::{MetricsCore, MetricsSink, TraceSink};
//! use pads_runtime::Cursor;
//!
//! let core = MetricsCore::new().with_trace(8, 10_000).into_handle();
//! let cur = Cursor::new(b"data").with_metrics(core.clone());
//! // ... parse with either engine ...
//! # drop(cur);
//! println!("{}", MetricsSink::from_core(core.borrow().clone()).counts_json());
//! print!("{}", TraceSink::from_core(&core.borrow()).render());
//! ```

pub mod metrics;
pub mod summary;
pub mod trace;
mod util;

pub use metrics::MetricsSink;
pub use pads_runtime::metrics::{MetricsCore, MetricsHandle, ObsSchema, TypeStat, WorkerObs};
pub use pads_runtime::observe::{RecoveryEvent, TraceEvent, TraceLog};
pub use trace::TraceSink;
