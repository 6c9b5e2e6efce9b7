//! Event-stream equivalence: both engines — the interpreting parser and
//! the generated modules — must emit *identical* event streams for the same
//! input, because record, error, and recovery events come from the shared
//! cursor accounting path and type enter/exit pairs bracket the same named
//! types. The streams are read from the attached metrics core's trace.
//! Also pins the satellite guarantees: recovery events mirror the
//! `ErrorBudget` counters exactly, under both degradation modes and the
//! 1000-seed fault harness.

use pads::generated::{clf, mixed, sirius};
use pads::{descriptions, PadsParser, ParseOptions};
use pads_observe::{MetricsCore, TraceEvent, TraceSink};
use pads_runtime::{
    BaseMask, Cursor, FaultPlan, Mask, OnExhausted, ParseDesc, RecoveryEvent, RecoveryPolicy,
};

fn mask() -> Mask {
    Mask::all(BaseMask::CheckAndSet)
}

/// Every event verbatim, as comparable strings.
#[derive(Default)]
struct EventLog {
    events: Vec<String>,
    panic_skip_bytes: u64,
    skip_records: u64,
}

impl EventLog {
    /// Reads `core`'s unbounded trace, naming nodes through its table.
    fn from_core(core: &MetricsCore) -> EventLog {
        let trace = core.trace().expect("tracing on");
        assert_eq!(trace.truncated(), 0, "the trace must keep every span");
        let name = |id| core.node_name(id).unwrap_or("?");
        let mut log = EventLog::default();
        for event in trace.events() {
            let line = match *event {
                TraceEvent::Enter { node, offset } => format!("enter {} @{offset}", name(node)),
                TraceEvent::Exit { node, start, end, nerr } => format!(
                    "exit {} [{start}..{end}) nerr={nerr} ok={}",
                    name(node),
                    nerr == 0
                ),
                TraceEvent::Error { ref path, code, loc } => {
                    let at = loc.map(|(begin, end)| format!("{begin}..{end}"));
                    format!("error {path} {} @{at:?}", code.name())
                }
                TraceEvent::Recovery { event, offset } => {
                    match event {
                        RecoveryEvent::PanicSkip { bytes } => log.panic_skip_bytes += bytes,
                        RecoveryEvent::SkipRecord => log.skip_records += 1,
                        RecoveryEvent::BudgetExhausted { .. } => {}
                    }
                    format!("recovery {event:?} @{offset}")
                }
                TraceEvent::Record { index, start, end, nerr } => {
                    format!("record {index} [{start}..{end}) nerr={nerr}")
                }
            };
            log.events.push(line);
        }
        log
    }
}

/// Parses `data` with the interpreter under `policy` and returns the log.
fn interp_events(
    schema: &pads_check::ir::Schema,
    data: &[u8],
    policy: RecoveryPolicy,
) -> EventLog {
    let registry = pads_runtime::Registry::standard();
    let parser = PadsParser::new(schema, &registry)
        .with_options(ParseOptions { policy, ..Default::default() });
    let core = parser.metrics_core().with_trace(usize::MAX, usize::MAX).into_handle();
    let parser = parser.with_metrics(core.clone());
    let _ = parser.parse_source(data, &mask());
    let log = EventLog::from_core(&core.borrow());
    log
}

/// Parses `data` with a generated `parse_source` on `core` (the module's
/// `metrics_core()`) and returns the log plus the cursor's final budget
/// (for counter cross-checks).
fn gen_events(
    core: MetricsCore,
    parse: impl Fn(&mut Cursor<'_>, &Mask) -> ParseDesc,
    data: &[u8],
    policy: RecoveryPolicy,
) -> (EventLog, pads_runtime::ErrorBudget) {
    let core = core.with_trace(usize::MAX, usize::MAX).into_handle();
    let mut cur = Cursor::new(data).with_policy(policy).with_metrics(core.clone());
    let _ = parse(&mut cur, &mask());
    let budget = cur.budget();
    let log = EventLog::from_core(&core.borrow());
    (log, budget)
}

fn assert_same_stream(name: &str, interp: &EventLog, gen: &EventLog) {
    if interp.events != gen.events {
        for (i, (a, b)) in interp.events.iter().zip(&gen.events).enumerate() {
            assert_eq!(a, b, "{name}: event {i} diverges");
        }
        panic!(
            "{name}: stream lengths differ (interp {} vs gen {})",
            interp.events.len(),
            gen.events.len()
        );
    }
    assert!(!interp.events.is_empty(), "{name}: no events observed");
}

#[test]
fn torture_corpora_produce_identical_event_streams() {
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
    let schemas =
        [descriptions::clf(), descriptions::sirius(), descriptions::mixed()];
    for ((name, data, core, parse), schema) in cases.into_iter().zip(&schemas) {
        let policy = RecoveryPolicy::unlimited();
        let interp = interp_events(schema, data, policy);
        let (gen, _) = gen_events(core(), parse, data, policy);
        assert_same_stream(name, &interp, &gen);
    }
}

/// A Sirius corpus with a known number of dirty records (as in the PR-1
/// budget tests).
fn dirty_sirius() -> Vec<u8> {
    pads_gen::sirius::generate(&pads_gen::SiriusConfig {
        records: 40,
        syntax_errors: 10,
        sort_violations: 0,
        ..Default::default()
    })
    .0
}

#[test]
fn skip_record_mode_emits_matching_recovery_events() {
    let data = dirty_sirius();
    let policy = RecoveryPolicy::unlimited()
        .with_max_errs(3)
        .with_on_exhausted(OnExhausted::SkipRecord);
    let schema = descriptions::sirius();
    let interp = interp_events(&schema, &data, policy);
    let (gen, budget) =
        gen_events(sirius::metrics_core(), |c, m| sirius::parse_source(c, m).1, &data, policy);
    assert_same_stream("sirius/skip-record", &interp, &gen);
    // Every budget-driven record skip produced exactly one SkipRecord event,
    // and the exhaustion transition itself was announced once.
    assert!(budget.skipped_records > 0, "budget never forced a skip");
    assert_eq!(gen.skip_records, budget.skipped_records);
    let exhausted = gen
        .events
        .iter()
        .filter(|e| e.starts_with("recovery BudgetExhausted"))
        .count();
    assert_eq!(exhausted, 1, "exhaustion transition must fire exactly once");
    // A counting core aggregates the same stream into the same counters.
    let core = sirius::metrics_core().into_handle();
    let mut cur = Cursor::new(&data).with_policy(policy).with_metrics(core.clone());
    let _ = sirius::parse_source(&mut cur, &mask());
    let m = core.borrow();
    assert_eq!(m.records_skipped(), budget.skipped_records);
    assert_eq!(m.records(), 40 + 1); // 40 entries + the header record
}

#[test]
fn best_effort_mode_emits_matching_recovery_events() {
    let data = dirty_sirius();
    let policy = RecoveryPolicy::unlimited()
        .with_max_errs(3)
        .with_on_exhausted(OnExhausted::BestEffort);
    let schema = descriptions::sirius();
    let interp = interp_events(&schema, &data, policy);
    let (gen, budget) =
        gen_events(sirius::metrics_core(), |c, m| sirius::parse_source(c, m).1, &data, policy);
    assert_same_stream("sirius/best-effort", &interp, &gen);
    // Best-effort never skips records wholesale; it only flattens detail.
    assert_eq!(gen.skip_records, 0);
    assert_eq!(budget.skipped_records, 0);
    assert!(
        gen.events
            .iter()
            .any(|e| e.starts_with("recovery BudgetExhausted { mode: BestEffort }")),
        "exhaustion under BestEffort must be announced"
    );
}

/// The 1000-seed fault harness, with traces attached: both
/// engines still agree event-for-event, and the recovery events account for
/// exactly the bytes the budget says panic mode skipped.
#[test]
fn fault_harness_event_streams_agree_and_match_byte_accounting() {
    let clean = pads_gen::clf::generate(&pads_gen::ClfConfig {
        records: 15,
        ..Default::default()
    })
    .0;
    let schema = descriptions::clf();
    let policy = RecoveryPolicy::unlimited();
    let mut panic_seeds = 0u32;
    for seed in 0..1000 {
        let data = FaultPlan::for_seed(seed).apply(&clean);
        let interp = interp_events(&schema, &data, policy);
        let (gen, budget) =
            gen_events(clf::metrics_core(), |c, m| clf::parse_source(c, m).1, &data, policy);
        assert_same_stream(&format!("clf seed {seed}"), &interp, &gen);
        // Byte accounting, restated through the trace: the sum of
        // PanicSkip event bytes equals the budget's panic_skipped counter.
        assert_eq!(
            gen.panic_skip_bytes, budget.panic_skipped,
            "seed {seed}: recovery events disagree with the budget"
        );
        if budget.panic_skipped > 0 {
            panic_seeds += 1;
        }
    }
    assert!(panic_seeds > 0, "no mutation triggered panic recovery");
}

/// The trace's depth and span bounds through a real parse: every type
/// enter is either a recorded span or counted as truncated, no recorded
/// span sits deeper than the bound, and the render says how many spans
/// it left out.
#[test]
fn trace_bounds_hold_through_a_real_parse() {
    const DEPTH: usize = 3;
    const SPANS: usize = 40;
    let schema = descriptions::clf();
    let registry = pads_runtime::Registry::standard();
    let parser = PadsParser::new(&schema, &registry);
    let core = parser.metrics_core().with_trace(DEPTH, SPANS).into_handle();
    let parser = parser.with_metrics(core.clone());
    let _ = parser.parse_source(include_bytes!("../../../tests/data/torture_clf.log"), &mask());
    let core = core.borrow();
    let enters: u64 = core.sorted_types().iter().map(|(_, t)| t.hits).sum();
    let trace = core.trace().expect("tracing on");
    let (mut spans, mut depth, mut deepest) = (0u64, 0usize, 0usize);
    for event in trace.events() {
        match event {
            TraceEvent::Enter { .. } => {
                spans += 1;
                depth += 1;
                deepest = deepest.max(depth);
            }
            TraceEvent::Exit { .. } => depth -= 1,
            _ => {}
        }
    }
    assert_eq!(spans, SPANS as u64, "the span bound is reached");
    assert!(deepest <= DEPTH, "a span {deepest} levels deep");
    assert!(trace.truncated() > 0, "the bounds cut nothing");
    assert_eq!(spans + trace.truncated(), enters, "recorded plus truncated spans");
    let text = TraceSink::from_core(&core).render();
    let tail = format!("({} spans beyond bounds not shown)\n", trace.truncated());
    assert!(text.ends_with(&tail), "{text}");
}
