//! Width-interval soundness: the fact database claims every parse of a
//! type `T` consumes between `min` and `max` bytes (`max` absent for
//! unbounded types). This property test replays the torture corpora and
//! the 1000-seed fault harness through BOTH engines with a tracing metrics
//! core attached, and checks every clean type-exit span against the computed
//! interval. Record types get one byte of slack: the record close
//! consumes the newline terminator, which sits outside the type's
//! content width.

use std::collections::HashMap;

use pads::generated::{clf, mixed, sirius};
use pads::{descriptions, PadsParser};
use pads_check::ir::Schema;
use pads_check::lint::facts::{SemFacts, WidthInterval};
use pads_check::lint::firstset::Facts;
use pads_observe::{MetricsCore, MetricsHandle, TraceEvent};
use pads_runtime::{BaseMask, Cursor, FaultPlan, Mask, ParseDesc, Registry};

fn mask() -> Mask {
    Mask::all(BaseMask::CheckAndSet)
}

/// `(type name, consumed bytes)` for every *clean* type exit; errored or
/// partial parses may legitimately stop anywhere.
struct SpanLog {
    spans: Vec<(String, u64)>,
}

impl SpanLog {
    /// Reads the clean exits out of `core`'s unbounded trace.
    fn from_core(core: &MetricsHandle) -> SpanLog {
        let core = core.borrow();
        let trace = core.trace().expect("tracing on");
        assert_eq!(trace.truncated(), 0, "the trace must keep every span");
        let spans = trace
            .events()
            .iter()
            .filter_map(|event| match *event {
                TraceEvent::Exit { node, start, end, nerr: 0 } => {
                    let name = core.node_name(node).unwrap_or("?").to_owned();
                    Some((name, (end - start) as u64))
                }
                _ => None,
            })
            .collect();
        SpanLog { spans }
    }
}

/// Per-type width intervals plus the record flag controlling newline
/// slack.
fn width_table(schema: &Schema) -> HashMap<String, (WidthInterval, bool)> {
    let firsts = Facts::compute(schema);
    let sem = SemFacts::compute(schema, &firsts);
    (0..schema.types.len())
        .map(|id| {
            let def = schema.def(id);
            (def.name.clone(), (sem.width_of(id), def.is_record))
        })
        .collect()
}

fn check_spans(label: &str, log: &SpanLog, table: &HashMap<String, (WidthInterval, bool)>) {
    assert!(!log.spans.is_empty(), "{label}: no clean spans observed");
    for (name, consumed) in &log.spans {
        let Some((w, is_record)) = table.get(name) else {
            panic!("{label}: observer saw unknown type `{name}`");
        };
        let slack = u64::from(*is_record);
        assert!(
            *consumed >= w.min,
            "{label}: `{name}` consumed {consumed} bytes, below proven min {}",
            w.min
        );
        if let Some(max) = w.max {
            assert!(
                *consumed <= max + slack,
                "{label}: `{name}` consumed {consumed} bytes, above proven max {max} (+{slack} record slack)"
            );
        }
    }
}

fn interp_spans(schema: &Schema, data: &[u8]) -> SpanLog {
    let registry = Registry::standard();
    let parser = PadsParser::new(schema, &registry);
    let core = parser.metrics_core().with_trace(usize::MAX, usize::MAX).into_handle();
    let parser = parser.with_metrics(core.clone());
    let _ = parser.parse_source(data, &mask());
    SpanLog::from_core(&core)
}

/// Parses `data` with a generated `parse_source` on `core` (the module's
/// `metrics_core()`).
fn gen_spans(
    core: MetricsCore,
    parse: impl Fn(&mut Cursor<'_>, &Mask) -> ParseDesc,
    data: &[u8],
) -> SpanLog {
    let core = core.with_trace(usize::MAX, usize::MAX).into_handle();
    let mut cur = Cursor::new(data).with_metrics(core.clone());
    let _ = parse(&mut cur, &mask());
    SpanLog::from_core(&core)
}

#[test]
fn torture_corpora_respect_width_intervals_on_both_engines() {
    type Parse = fn(&mut Cursor<'_>, &Mask) -> ParseDesc;
    type Case = (&'static str, &'static [u8], fn() -> MetricsCore, Parse);
    let cases: [Case; 3] = [
        (
            "clf",
            include_bytes!("../../../tests/data/torture_clf.log"),
            clf::metrics_core,
            |cur, m| clf::parse_source(cur, m).1,
        ),
        (
            "sirius",
            include_bytes!("../../../tests/data/torture_sirius.txt"),
            sirius::metrics_core,
            |cur, m| sirius::parse_source(cur, m).1,
        ),
        (
            "mixed",
            include_bytes!("../../../tests/data/torture_mixed.txt"),
            mixed::metrics_core,
            |cur, m| mixed::parse_source(cur, m).1,
        ),
    ];
    let schemas = [descriptions::clf(), descriptions::sirius(), descriptions::mixed()];
    for ((name, data, core, parse), schema) in cases.into_iter().zip(&schemas) {
        let table = width_table(schema);
        check_spans(
            &format!("{name}/interpreted"),
            &interp_spans(schema, data),
            &table,
        );
        check_spans(&format!("{name}/generated"), &gen_spans(core(), parse, data), &table);
    }
}

#[test]
fn fault_harness_respects_width_intervals_on_both_engines() {
    // 1000 seeded mutations of a clean CLF corpus: bit flips, deletions,
    // insertions, truncation. Soundness must hold on whatever clean
    // sub-parses survive the damage.
    let clean = pads_gen::clf::generate(&pads_gen::ClfConfig {
        records: 15,
        ..Default::default()
    })
    .0;
    let schema = descriptions::clf();
    let table = width_table(&schema);
    let mut checked = 0usize;
    for seed in 0..1000 {
        let data = FaultPlan::for_seed(seed).apply(&clean);
        let ilog = interp_spans(&schema, &data);
        let glog = gen_spans(clf::metrics_core(), |c, m| clf::parse_source(c, m).1, &data);
        // Mutated corpora can in principle fail every parse; only check
        // non-empty logs (check_spans asserts non-emptiness).
        for (label, log) in
            [(format!("seed {seed}/interpreted"), &ilog), (format!("seed {seed}/generated"), &glog)]
        {
            if !log.spans.is_empty() {
                check_spans(&label, log, &table);
                checked += 1;
            }
        }
    }
    assert!(checked >= 1900, "too few seeds produced clean spans: {checked}");
}
