//! The parse-event vocabulary and the bounded span-trace recorder.
//!
//! Both parsing engines — the interpreter in `pads-core` and the modules
//! emitted by `pads-codegen` — report what they consume through the
//! [`Cursor`](crate::io::Cursor) hooks: type entry/exit by dense node id,
//! per-descriptor errors, recovery actions, and record boundaries. The
//! record-boundary, error, and recovery events are emitted centrally from
//! the shared budget-accounting path, so both engines produce identical
//! event streams for the same input.
//!
//! Every event lands in the one attached
//! [`MetricsCore`](crate::metrics::MetricsCore). Counting is always on;
//! the full stream is kept only when the core's trace is switched on
//! ([`MetricsCore::with_trace`](crate::metrics::MetricsCore::with_trace)),
//! as a [`TraceLog`] of [`TraceEvent`]s that name nodes by id. Names are
//! joined when the log is rendered (`pads_observe::TraceSink`).
//!
//! When no core is attached the hooks cost a single `Option`
//! discriminant test per site; the `ablation_observer` bench in
//! `crates/bench` keeps that claim honest.

use crate::error::ErrorCode;
use crate::recovery::OnExhausted;

/// A recovery action taken by the error-budget machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryEvent {
    /// Panic-mode resynchronisation discarded `bytes` bytes to reach the
    /// record boundary.
    PanicSkip {
        /// Bytes discarded between the failure point and the boundary.
        bytes: u64,
    },
    /// A whole record was framed and skipped without parsing
    /// ([`OnExhausted::SkipRecord`]).
    SkipRecord,
    /// The error budget just transitioned to exhausted under `mode`.
    BudgetExhausted {
        /// The degradation mode now in force.
        mode: OnExhausted,
    },
}

/// One recorded parse event. Offsets are absolute byte offsets.
///
/// Stream guarantees:
///
/// * `Enter`/`Exit` bracket every *named* type parse and nest properly;
///   failed attempts (e.g. union branches that backtrack) still produce a
///   balanced pair, with the failure visible in the exit's `nerr`.
/// * `Error` appears once per descriptor error surviving in a closed
///   record (after per-record truncation), plus once per source-level
///   root error — exactly the errors a caller of
///   [`ParseDesc::errors`](crate::pd::ParseDesc::errors) would see.
/// * `Record` appears once per closed or skipped record, in order.
/// * `Recovery` appears when the budget machinery acts: panic-mode skips,
///   wholesale record skips, and the exhaustion transition itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// Node `node`'s parse began at `offset`.
    Enter {
        /// Dense node id.
        node: u32,
        /// Where the parse began.
        offset: usize,
    },
    /// Node `node`'s parse covered `[start, end)` and its final descriptor
    /// holds `nerr` errors (the parse is ok when `nerr` is 0).
    Exit {
        /// Dense node id.
        node: u32,
        /// Start offset the engine reported at exit.
        start: usize,
        /// Where the parse ended.
        end: usize,
        /// Errors in the final descriptor.
        nerr: u32,
    },
    /// A descriptor error at `path` (dotted field path, `""` for the root).
    Error {
        /// Dotted field path within the record type.
        path: String,
        /// The error code.
        code: ErrorCode,
        /// The error location's `begin..end` offsets, when recorded.
        loc: Option<(usize, usize)>,
    },
    /// The recovery machinery acted at `offset`.
    Recovery {
        /// What it did.
        event: RecoveryEvent,
        /// Where the action completed.
        offset: usize,
    },
    /// Record `index` closed covering `[start, end)` with `nerr` errors.
    Record {
        /// Zero-based record index.
        index: usize,
        /// First byte of the record.
        start: usize,
        /// One past the last byte of the record.
        end: usize,
        /// Errors charged to the record.
        nerr: u32,
    },
}

/// The span trace: a depth- and size-bounded log of [`TraceEvent`]s.
///
/// A type parse deeper than `max_depth`, inside an unrecorded parse, or
/// past the first `max_spans` spans is counted in
/// [`truncated`](Self::truncated) and leaves no `Enter`/`Exit` pair;
/// errors, recoveries and records are always kept.
#[derive(Debug, Clone)]
pub struct TraceLog {
    max_depth: usize,
    max_spans: usize,
    spans: usize,
    truncated: u64,
    /// One entry per open parse: whether it was recorded.
    open: Vec<bool>,
    events: Vec<TraceEvent>,
}

impl TraceLog {
    /// A log keeping spans down to `max_depth` nesting levels (at least
    /// 1) and at most `max_spans` spans overall.
    pub fn new(max_depth: usize, max_spans: usize) -> TraceLog {
        TraceLog {
            max_depth: max_depth.max(1),
            max_spans,
            spans: 0,
            truncated: 0,
            open: Vec::new(),
            events: Vec::new(),
        }
    }

    /// The recorded events, in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Spans dropped because of the depth/size bounds.
    pub fn truncated(&self) -> u64 {
        self.truncated
    }

    pub(crate) fn enter(&mut self, node: u32, offset: usize) {
        let record = self.open.last().copied().unwrap_or(true)
            && self.open.len() < self.max_depth
            && self.spans < self.max_spans;
        if record {
            self.spans += 1;
            self.events.push(TraceEvent::Enter { node, offset });
        } else {
            self.truncated += 1;
        }
        self.open.push(record);
    }

    pub(crate) fn exit(&mut self, node: u32, start: usize, end: usize, nerr: u32) {
        if self.open.pop() == Some(true) {
            self.events.push(TraceEvent::Exit { node, start, end, nerr });
        }
    }

    pub(crate) fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmatched_exit_is_ignored() {
        let mut t = TraceLog::new(8, 10);
        t.exit(0, 0, 1, 0);
        assert!(t.events().is_empty());
    }
}
