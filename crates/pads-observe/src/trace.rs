//! The trace renderer: the span tree a [`MetricsCore`]'s trace recorded,
//! showing exactly how a record was consumed — which types were tried,
//! over which byte ranges, and what the recovery machinery did in
//! between.
//!
//! The core records node ids and offsets
//! ([`MetricsCore::with_trace`]); this module joins the names in and
//! renders the tree as text or JSONL.
//!
//! Union backtracking means failed attempts appear too: a span whose
//! descriptor is not ok is an alternative the engine tried and
//! abandoned, which is precisely the information grammar debugging
//! needs (cf. Saggitarius's "which alternatives were tried" traces).

use std::fmt::Write as _;

use pads_runtime::metrics::MetricsCore;
use pads_runtime::observe::TraceEvent;

use crate::util::esc;

/// One node of the trace tree, in document order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A completed type parse and everything observed inside it.
    Span(Span),
    /// A descriptor error surfaced at record close (or a source-level
    /// root error).
    Error {
        /// Dotted field path within the record type (`""` at the root).
        path: String,
        /// The error code's stable name.
        code: &'static str,
        /// Error location start offset, when the descriptor recorded one.
        offset: Option<usize>,
    },
    /// A recovery action.
    Recovery {
        /// Human-readable action (e.g. `PanicSkip { bytes: 12 }`).
        what: String,
        /// Byte offset where the action completed.
        offset: usize,
    },
    /// A record boundary.
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

/// A completed type parse: byte range, outcome, and children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The named type parsed.
    pub name: String,
    /// Byte offset where the parse began.
    pub start: usize,
    /// Byte offset where the parse ended.
    pub end: usize,
    /// Errors in the final descriptor.
    pub nerr: u32,
    /// Whether the final descriptor was ok.
    pub ok: bool,
    /// Nested events, in order.
    pub children: Vec<Node>,
}

/// A recorded trace as a tree of [`Node`]s, ready to render.
#[derive(Debug, Default)]
pub struct TraceSink {
    truncated: u64,
    roots: Vec<Node>,
}

impl TraceSink {
    /// Builds the tree from `core`'s recorded trace (empty when tracing
    /// was off), naming each span through the core's node table. Spans
    /// still open at the end of the log are not included.
    pub fn from_core(core: &MetricsCore) -> TraceSink {
        let Some(log) = core.trace() else {
            return TraceSink::default();
        };
        let mut open: Vec<Span> = Vec::new();
        let mut roots = Vec::new();
        for event in log.events() {
            let node = match event {
                &TraceEvent::Enter { node, offset } => {
                    open.push(Span {
                        name: core.node_name(node).unwrap_or("?").to_owned(),
                        start: offset,
                        end: offset,
                        nerr: 0,
                        ok: true,
                        children: Vec::new(),
                    });
                    continue;
                }
                &TraceEvent::Exit { end, nerr, .. } => {
                    let Some(mut span) = open.pop() else { continue };
                    span.end = end;
                    span.nerr = nerr;
                    span.ok = nerr == 0;
                    Node::Span(span)
                }
                TraceEvent::Error { path, code, loc } => Node::Error {
                    path: path.clone(),
                    code: code.name(),
                    offset: loc.map(|(begin, _)| begin),
                },
                TraceEvent::Recovery { event, offset } => {
                    Node::Recovery { what: format!("{event:?}"), offset: *offset }
                }
                &TraceEvent::Record { index, start, end, nerr } => {
                    Node::Record { index, start, end, nerr }
                }
            };
            match open.last_mut() {
                Some(parent) => parent.children.push(node),
                None => roots.push(node),
            }
        }
        TraceSink { truncated: log.truncated(), roots }
    }

    /// Spans dropped because of the depth/size bounds.
    pub fn truncated(&self) -> u64 {
        self.truncated
    }

    /// The top-level nodes.
    pub fn roots(&self) -> &[Node] {
        &self.roots
    }

    /// Renders the tree as indented text, one node per line.
    pub fn render(&self) -> String {
        fn go(out: &mut String, nodes: &[Node], depth: usize) {
            for node in nodes {
                let pad = "  ".repeat(depth);
                match node {
                    Node::Span(s) => {
                        let status = if s.ok {
                            "ok".to_owned()
                        } else {
                            format!("FAILED nerr={}", s.nerr)
                        };
                        let _ = writeln!(
                            out,
                            "{pad}{} [{}..{}) {status}",
                            s.name, s.start, s.end
                        );
                        go(out, &s.children, depth + 1);
                    }
                    Node::Error { path, code, offset } => {
                        let at = offset.map(|o| format!(" @{o}")).unwrap_or_default();
                        let p = if path.is_empty() { "<root>" } else { path.as_str() };
                        let _ = writeln!(out, "{pad}! {p}: {code}{at}");
                    }
                    Node::Recovery { what, offset } => {
                        let _ = writeln!(out, "{pad}~ recovery {what} @{offset}");
                    }
                    Node::Record { index, start, end, nerr } => {
                        let _ = writeln!(
                            out,
                            "{pad}= record {index} [{start}..{end}) nerr={nerr}"
                        );
                    }
                }
            }
        }
        let mut out = String::new();
        go(&mut out, &self.roots, 0);
        if self.truncated > 0 {
            let _ = writeln!(out, "({} spans beyond bounds not shown)", self.truncated);
        }
        out
    }

    /// Dumps the tree as JSONL: one JSON object per node in document
    /// order, each carrying its nesting `depth`.
    pub fn jsonl(&self) -> String {
        fn go(out: &mut String, nodes: &[Node], depth: usize) {
            for node in nodes {
                match node {
                    Node::Span(s) => {
                        let _ = writeln!(
                            out,
                            "{{\"ev\":\"span\",\"name\":\"{}\",\"depth\":{depth},\"start\":{},\"end\":{},\"nerr\":{},\"ok\":{}}}",
                            esc(&s.name), s.start, s.end, s.nerr, s.ok
                        );
                        go(out, &s.children, depth + 1);
                    }
                    Node::Error { path, code, offset } => {
                        let at = offset.map(|o| o.to_string()).unwrap_or_else(|| "null".into());
                        let _ = writeln!(
                            out,
                            "{{\"ev\":\"error\",\"depth\":{depth},\"path\":\"{}\",\"code\":\"{code}\",\"offset\":{at}}}",
                            esc(path)
                        );
                    }
                    Node::Recovery { what, offset } => {
                        let _ = writeln!(
                            out,
                            "{{\"ev\":\"recovery\",\"depth\":{depth},\"action\":\"{}\",\"offset\":{offset}}}",
                            esc(what)
                        );
                    }
                    Node::Record { index, start, end, nerr } => {
                        let _ = writeln!(
                            out,
                            "{{\"ev\":\"record\",\"depth\":{depth},\"index\":{index},\"start\":{start},\"end\":{end},\"nerr\":{nerr}}}"
                        );
                    }
                }
            }
        }
        let mut out = String::new();
        go(&mut out, &self.roots, 0);
        if self.truncated > 0 {
            let _ = writeln!(out, "{{\"ev\":\"truncated\",\"spans\":{}}}", self.truncated);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pads_runtime::ParseDesc;

    #[test]
    fn spans_nest_and_render() {
        let mut m = MetricsCore::with_names(["outer_t", "inner_t"]).with_trace(8, 10_000);
        m.enter_id(0, "outer_t", 0);
        m.enter_id(1, "inner_t", 0);
        m.exit_id(1, "inner_t", 0, 4, 0);
        m.close_record(&ParseDesc::default(), 0, 0, 5);
        m.exit_id(0, "outer_t", 0, 5, 0);
        let t = TraceSink::from_core(&m);
        assert_eq!(t.roots().len(), 1);
        let text = t.render();
        assert!(text.contains("outer_t [0..5) ok"), "{text}");
        assert!(text.contains("  inner_t [0..4) ok"), "{text}");
        assert!(text.contains("  = record 0 [0..5) nerr=0"), "{text}");
        let jsonl = t.jsonl();
        assert!(jsonl.contains("\"ev\":\"span\",\"name\":\"inner_t\",\"depth\":1"), "{jsonl}");
    }

    #[test]
    fn depth_bound_truncates_but_stays_balanced() {
        let mut m = MetricsCore::with_names(["a", "b"]).with_trace(1, 100);
        m.enter_id(0, "a", 0);
        m.enter_id(1, "b", 0); // beyond depth 1 — dropped
        m.exit_id(1, "b", 0, 1, 0);
        m.exit_id(0, "a", 0, 1, 0);
        let t = TraceSink::from_core(&m);
        assert_eq!(t.truncated(), 1);
        assert_eq!(t.roots().len(), 1);
        assert!(t.render().contains("not shown"));
    }

    #[test]
    fn span_cap_stops_recording() {
        let mut m = MetricsCore::with_names(["x"]).with_trace(8, 1);
        for i in 0..3 {
            m.enter_id(0, "x", i);
            m.exit_id(0, "x", i, i + 1, 0);
        }
        let t = TraceSink::from_core(&m);
        assert_eq!(t.roots().len(), 1);
        assert_eq!(t.truncated(), 2);
    }

    #[test]
    fn a_core_without_a_trace_renders_nothing() {
        let t = TraceSink::from_core(&MetricsCore::new());
        assert!(t.roots().is_empty());
        assert_eq!(t.render(), "");
    }
}
