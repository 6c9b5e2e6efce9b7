//! Parallel/sequential equivalence: the record-sharded engine must be
//! byte-identical to the sequential record loop — same values, same parse
//! descriptors (with global coordinates), same error-budget counters, same
//! observer counter snapshots — at every job count, for every recovery
//! policy, on both the curated torture corpora and a fault-injected sweep.
//!
//! Also home to the `Popt` backtracking regression test: a failed optional
//! must leave the cursor offset, record coordinates, and error budget
//! exactly as its single checkpoint saw them.

use pads::generated::clf as gen_clf;
use pads::{
    compile, descriptions, BaseMask, ErrorBudget, Mask, OnExhausted, PadsParser, ParseDesc,
    ParseOptions, RecoveryPolicy, Registry, Schema, Value,
};
use pads_observe::MetricsSink;
use pads_runtime::{
    plan_chunks, Charset, Cursor, FaultPlan, MetricsCore, RecordDiscipline, WorkerObs,
};

const CLF: &[u8] = include_bytes!("data/torture_clf.log");
const SIRIUS: &[u8] = include_bytes!("data/torture_sirius.txt");
const MIXED: &[u8] = include_bytes!("data/torture_mixed.txt");

fn mask() -> Mask {
    Mask::all(BaseMask::CheckAndSet)
}

/// The policy matrix every equivalence check runs under: unlimited, plus
/// each `OnExhausted` mode with a budget small enough to trip on the
/// torture corpora, plus the orthogonal per-record and panic-skip limits.
fn policies() -> Vec<RecoveryPolicy> {
    vec![
        RecoveryPolicy::unlimited(),
        RecoveryPolicy::unlimited().with_max_errs(2).with_on_exhausted(OnExhausted::Stop),
        RecoveryPolicy::unlimited().with_max_errs(2).with_on_exhausted(OnExhausted::SkipRecord),
        RecoveryPolicy::unlimited().with_max_errs(3).with_on_exhausted(OnExhausted::BestEffort),
        RecoveryPolicy::unlimited().with_max_record_errs(0),
        RecoveryPolicy::unlimited().with_max_panic_skip(0).with_on_exhausted(OnExhausted::SkipRecord),
    ]
}

/// Sequential ground truth: drain `records()` and read back the budget.
fn sequential(
    schema: &Schema,
    registry: &Registry,
    policy: RecoveryPolicy,
    data: &[u8],
    record: &str,
) -> (Vec<(Value, ParseDesc)>, ErrorBudget) {
    let parser = PadsParser::new(schema, registry)
        .with_options(ParseOptions { policy, ..Default::default() });
    let mask = mask();
    let mut it = parser.records(data, record, &mask);
    let items: Vec<_> = it.by_ref().collect();
    (items, it.budget())
}

fn assert_equivalent(label: &str, schema: &Schema, data: &[u8], record: &str) {
    let registry = Registry::standard();
    for policy in policies() {
        let (seq_items, seq_budget) = sequential(schema, &registry, policy, data, record);
        for jobs in [1, 2, 4] {
            let parser = PadsParser::new(schema, &registry)
                .with_options(ParseOptions { policy, ..Default::default() });
            let (par_items, par_budget) = parser.records_par(data, record, &mask(), jobs);
            assert_eq!(
                par_items.len(),
                seq_items.len(),
                "{label} jobs={jobs} policy={policy:?}: record count"
            );
            for (i, (par, seq)) in par_items.iter().zip(&seq_items).enumerate() {
                assert_eq!(par.0, seq.0, "{label} jobs={jobs} policy={policy:?}: value [{i}]");
                assert_eq!(
                    par.1, seq.1,
                    "{label} jobs={jobs} policy={policy:?}: descriptor [{i}]"
                );
            }
            assert_eq!(
                par_budget, seq_budget,
                "{label} jobs={jobs} policy={policy:?}: budget"
            );
        }
        // The columnar close path: folding the sharded stream into a
        // RecordBatch must reconstruct every record byte-identically,
        // error records included. Clean rows share one canonical OK
        // descriptor (kind `None`), so descriptors are compared exactly
        // on error rows and on state elsewhere.
        for jobs in [1, 4] {
            let parser = PadsParser::new(schema, &registry)
                .with_options(ParseOptions { policy, ..Default::default() });
            let (batch, batch_budget) =
                parser.records_par_batched(data, record, &mask(), jobs);
            assert_eq!(
                batch.len(),
                seq_items.len(),
                "{label} jobs={jobs} policy={policy:?}: batch row count"
            );
            for (i, (v, pd)) in seq_items.iter().enumerate() {
                assert_eq!(
                    batch.row(i),
                    *v,
                    "{label} jobs={jobs} policy={policy:?}: batch row [{i}]"
                );
                let bpd = batch.pd(i);
                assert_eq!(
                    bpd.is_ok(),
                    pd.is_ok(),
                    "{label} jobs={jobs} policy={policy:?}: batch pd state [{i}]"
                );
                if !pd.is_ok() {
                    assert_eq!(
                        bpd, *pd,
                        "{label} jobs={jobs} policy={policy:?}: batch error pd [{i}]"
                    );
                }
            }
            assert_eq!(
                batch_budget, seq_budget,
                "{label} jobs={jobs} policy={policy:?}: batch budget"
            );
        }
    }
}

#[test]
fn torture_clf_parallel_matches_sequential() {
    assert_equivalent("clf", &descriptions::clf(), CLF, "entry_t");
}

#[test]
fn torture_sirius_parallel_matches_sequential() {
    assert_equivalent("sirius", &descriptions::sirius(), SIRIUS, "entry_t");
}

#[test]
fn torture_mixed_parallel_matches_sequential() {
    assert_equivalent("mixed", &descriptions::mixed(), MIXED, "rec_t");
}

/// 1000-seed fault sweep: every deterministic mutation of a clean corpus
/// parses identically at `--jobs {1,2,4}`, cycling through the recovery
/// policies so shard budget-replay runs against injected faults too.
#[test]
fn fault_harness_parallel_matches_sequential() {
    const SEEDS: u64 = 1000;
    let schema = descriptions::clf();
    let registry = Registry::standard();
    let clean =
        pads_gen::clf::generate(&pads_gen::ClfConfig { records: 12, ..Default::default() }).0;
    let policies = policies();
    for seed in 0..SEEDS {
        let data = FaultPlan::for_seed(seed).apply(&clean);
        let policy = policies[(seed as usize) % policies.len()];
        let (seq_items, seq_budget) = sequential(&schema, &registry, policy, &data, "entry_t");
        for jobs in [2, 4] {
            let parser = PadsParser::new(&schema, &registry)
                .with_options(ParseOptions { policy, ..Default::default() });
            let (par_items, par_budget) = parser.records_par(&data, "entry_t", &mask(), jobs);
            assert_eq!(
                par_items, seq_items,
                "seed {seed} jobs={jobs} policy={policy:?}: items diverge"
            );
            assert_eq!(
                par_budget, seq_budget,
                "seed {seed} jobs={jobs} policy={policy:?}: budget diverges"
            );
        }
        // Columnar round trip on the same faulted corpus: every record —
        // including the ones the recovery policy patched up — must come
        // back out of the batch byte-identical.
        let mut batch = pads::RecordBatch::new();
        for (v, pd) in &seq_items {
            batch.push(v, pd);
        }
        for (i, (v, pd)) in seq_items.iter().enumerate() {
            assert_eq!(batch.row(i), *v, "seed {seed}: batch row [{i}] diverges");
            assert_eq!(
                batch.pd(i).is_ok(),
                pd.is_ok(),
                "seed {seed}: batch pd state [{i}] diverges"
            );
            if !pd.is_ok() {
                assert_eq!(batch.pd(i), *pd, "seed {seed}: batch error pd [{i}] diverges");
            }
        }
    }
}

/// A generated clf log big enough that each worker holds at least four
/// chunks at jobs 2 and 4, under an error budget that trips three
/// quarters of the way in — in a chunk no worker starts with. Under every
/// `OnExhausted` mode the pooled engine must match the sequential loop:
/// values, descriptors and budget.
#[test]
fn pooled_chunks_match_sequential_with_a_late_trip() {
    let schema = descriptions::clf();
    let registry = Registry::standard();
    let config = pads_gen::ClfConfig { records: 3000, seed: 11, ..Default::default() };
    let data = pads_gen::clf::generate(&config).0;
    let mask = mask();
    let unlimited = PadsParser::new(&schema, &registry);
    let mut it = unlimited.records(&data, "entry_t", &mask);
    for _ in (&mut it).take(2250) {}
    let max_errs = it.budget().errs;
    for mode in [OnExhausted::Stop, OnExhausted::SkipRecord, OnExhausted::BestEffort] {
        let policy = RecoveryPolicy::unlimited().with_max_errs(max_errs).with_on_exhausted(mode);
        let (seq_items, seq_budget) = sequential(&schema, &registry, policy, &data, "entry_t");
        assert!(seq_budget.exhausted(), "{mode:?}: the budget must trip");
        let parser = PadsParser::new(&schema, &registry)
            .with_options(ParseOptions { policy, ..Default::default() });
        // The record whose parse exhausts the budget.
        let mut seq = parser.records(&data, "entry_t", &mask);
        let mut trip = 0;
        while seq.next().is_some() && !seq.budget().exhausted() {
            trip += 1;
        }
        for jobs in [2, 4] {
            let plan = plan_chunks(&data, RecordDiscipline::Newline, Charset::Ascii, jobs);
            assert!(plan.shards.len() >= 4 * jobs, "jobs={jobs}: {} chunks", plan.shards.len());
            let chunk = plan.shards.iter().position(|c| trip < c.first_record + c.records);
            assert!(chunk.is_some_and(|c| c >= jobs), "jobs={jobs}: trip {trip} in {chunk:?}");
            let (par_items, par_budget) = parser.records_par(&data, "entry_t", &mask, jobs);
            assert_eq!(par_items.len(), seq_items.len(), "{mode:?} jobs={jobs}: record count");
            for (i, (par, seq)) in par_items.iter().zip(&seq_items).enumerate() {
                assert_eq!(par.0, seq.0, "{mode:?} jobs={jobs}: value [{i}]");
                assert_eq!(par.1, seq.1, "{mode:?} jobs={jobs}: descriptor [{i}]");
            }
            assert_eq!(par_budget, seq_budget, "{mode:?} jobs={jobs}: budget");
        }
    }
}

/// Runs the sequential record loop over `data` with `core` attached and
/// returns the core.
fn sequential_core(schema: &Schema, data: &[u8], core: MetricsCore) -> MetricsCore {
    let registry = Registry::standard();
    let core = core.into_handle();
    let parser = PadsParser::new(schema, &registry).with_metrics(core.clone());
    let _ = parser.records(data, "entry_t", &mask()).count();
    drop(parser);
    core.take()
}

/// Name-keyed equivalence: per-worker lazily-interning cores (no trusted
/// ids — every event resolves through its type name) drained per record
/// and merged in shard order produce the same deterministic counter
/// snapshot, and the same latency count, as one such core fed by the
/// sequential record loop.
#[test]
fn parallel_metrics_merge_matches_sequential_snapshot() {
    let schema = descriptions::clf();
    let registry = Registry::standard();
    let seq = sequential_core(&schema, CLF, MetricsCore::new());
    let seq_json = MetricsSink::from_core(seq.clone()).counts_json();

    for jobs in [1, 2, 4] {
        let parser = PadsParser::new(&schema, &registry);
        let (_, _, deltas) = parser.records_par_observed(CLF, "entry_t", &mask(), jobs, || {
            let core = MetricsCore::new().into_handle();
            let att = WorkerObs::metrics(core.clone());
            // Per-record harvest: drain the core's accumulation since the
            // previous call, leaving it fresh for the next record.
            let harvest: Box<dyn FnMut() -> MetricsCore> =
                Box::new(move || core.borrow_mut().drain());
            (att, harvest)
        });
        let mut merged = MetricsCore::new();
        for delta in &deltas {
            merged.merge(delta);
        }
        assert_eq!(merged.latency_count(), seq.latency_count(), "jobs={jobs}: latency count");
        assert_eq!(
            MetricsSink::from_core(merged).counts_json(),
            seq_json,
            "jobs={jobs}: merged metrics snapshot diverges from sequential"
        );
    }
}

/// Dense-core equivalence: per-worker `MetricsCore` shards (the `Send`-able
/// counter slabs over trusted ids) drained per record and merged in record
/// order produce the same snapshot as both a sequential dense-core run and
/// the name-keyed core above.
#[test]
fn parallel_dense_cores_merge_matches_sequential_snapshot() {
    let schema = descriptions::clf();
    let registry = Registry::standard();

    // Name-keyed ground truth.
    let named = sequential_core(&schema, CLF, MetricsCore::new());
    let named_json = MetricsSink::from_core(named).counts_json();

    // Sequential dense core.
    let parser = PadsParser::new(&schema, &registry);
    let seq = sequential_core(&schema, CLF, parser.metrics_core());
    let seq_json = MetricsSink::from_core(seq).counts_json();
    assert_eq!(seq_json, named_json, "dense core diverges from name-keyed core");

    for jobs in [1, 2, 4] {
        let parser = PadsParser::new(&schema, &registry);
        let (_, _, cores) = parser.records_par_observed(CLF, "entry_t", &mask(), jobs, || {
            let core = PadsParser::new(&schema, &registry).metrics_core().into_handle();
            let att = WorkerObs::metrics(core.clone());
            // drain() keeps the interning table with the live core, so the
            // worker's trusted dense ids stay valid across harvests.
            let harvest: Box<dyn FnMut() -> MetricsCore> =
                Box::new(move || core.borrow_mut().drain());
            (att, harvest)
        });
        let mut merged = MetricsCore::new();
        for core in &cores {
            merged.merge(core);
        }
        assert_eq!(
            MetricsSink::from_core(merged).counts_json(),
            seq_json,
            "jobs={jobs}: merged dense cores diverge from sequential"
        );
    }
}

/// The generated engine's `parse_records_par` agrees with a sequential
/// loop of the generated record reader, values, descriptors, and budget,
/// on the torture corpus and under a tripping budget.
#[test]
fn generated_parallel_matches_sequential_loop() {
    fn factory(policy: RecoveryPolicy) -> impl for<'a> Fn(&'a [u8]) -> Cursor<'a> + Sync {
        move |d| Cursor::new(d).with_policy(policy)
    }
    for policy in policies() {
        // Sequential ground truth over the same reader.
        let mut cur = factory(policy)(CLF);
        let mut seq = Vec::new();
        loop {
            if cur.at_eof() {
                break;
            }
            let before = cur.offset();
            let item = gen_clf::EntryT::read(&mut cur, &mask());
            seq.push(item);
            if cur.offset() == before {
                break;
            }
        }
        let seq_budget = cur.budget();
        for jobs in [1, 2, 4] {
            let (par, par_budget) =
                gen_clf::parse_records_par(CLF, &mask(), jobs, factory(policy));
            assert_eq!(par.len(), seq.len(), "jobs={jobs} policy={policy:?}: record count");
            for (i, ((pv, ppd), (sv, spd))) in par.iter().zip(&seq).enumerate() {
                assert_eq!(pv, sv, "jobs={jobs} policy={policy:?}: value [{i}]");
                // Sequential descriptors carry cursor-local coordinates that
                // are already global (the cursor starts at 0), so they must
                // match the rebased parallel ones exactly.
                assert_eq!(ppd, spd, "jobs={jobs} policy={policy:?}: descriptor [{i}]");
            }
            assert_eq!(par_budget, seq_budget, "jobs={jobs} policy={policy:?}: budget");
        }
    }
}

/// Regression (satellite): a failed `Popt` must restore from its single
/// checkpoint — cursor offset, record coordinates, and error budget all
/// exactly as before the attempt.
#[test]
fn failed_popt_leaves_cursor_and_budget_untouched() {
    let registry = Registry::standard();
    let schema = compile("Pstruct t { Popt Puint32 b; };", &registry).expect("compiles");
    let parser = PadsParser::new(&schema, &registry);
    let mut cur = parser.open(b"xyz");
    let before_pos = cur.position();
    let before_budget = cur.budget();
    let (v, pd) = parser.parse_named(&mut cur, "t", &[], &mask());
    assert_eq!(v.at_path("b"), Some(&Value::Opt(None)));
    assert!(pd.is_ok(), "a missing optional is not an error: {pd}");
    assert_eq!(cur.position(), before_pos, "failed Popt moved the cursor");
    assert_eq!(cur.budget(), before_budget, "failed Popt charged the budget");

    // Inside a record, the record coordinates survive too: the field after
    // the optional sees the exact bytes the optional declined.
    let schema = compile(
        r#"
        Precord Pstruct line_t { Popt Puint32 b; Pstring(:'|':) s; '|'; Puint32 n; };
        Psource Parray lines_t { line_t[]; };
        "#,
        &registry,
    )
    .expect("compiles");
    let parser = PadsParser::new(&schema, &registry);
    let items: Vec<_> = parser.records(b"abc|7\nxy|9\n", "line_t", &mask()).collect();
    assert_eq!(items.len(), 2);
    for (i, (v, pd)) in items.iter().enumerate() {
        assert!(pd.is_ok(), "[{i}]: {pd}");
        assert_eq!(v.at_path("b"), Some(&Value::Opt(None)), "[{i}]");
    }
    assert_eq!(items[0].0.at_path("s").and_then(Value::as_str), Some("abc"));
    assert_eq!(items[1].0.at_path("n").and_then(Value::as_u64), Some(9));
}
