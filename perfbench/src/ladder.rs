//! The traced ladder pass: calls each layer's public functions in process,
//! one span per call, following the paper's Figure 10 ladder
//! (count ≤ selection ≤ vetting) up through values, batches, shards,
//! sinks and observation.

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use pads::{
    BaseMask, Charset, Cursor, Engine, Mask, PadsParser, ParseOptions, RecordDiscipline, Registry,
    Schema,
};
use pads_observe::{MetricsCore, WorkerObs};
use pads_tools::{Accumulator, Formatter};

use crate::corpus::{self, Workload};
use crate::spans::Tracer;

/// Selection/vetting pairs timed per pass.
const LADDER_ROUNDS: usize = 3;

/// Repeats per pass of the layer calls that take under a millisecond.
const CHEAP_REPEATS: usize = 5;

/// Everything a pass needs, built once per run.
struct Ctx<'a> {
    workload: Workload,
    src: &'static str,
    schema: Schema,
    registry: Registry,
    /// The whole corpus (header included).
    data: &'a [u8],
    /// The record array behind the header.
    body: &'a [u8],
    /// The first record of the record array.
    first: &'a [u8],
    policy: pads::RecoveryPolicy,
    jobs: usize,
}

impl Ctx<'_> {
    fn options(&self, engine: Engine) -> ParseOptions {
        ParseOptions {
            policy: self.policy,
            engine,
            ..Default::default()
        }
    }

    fn parser(&self, engine: Engine) -> PadsParser<'_> {
        PadsParser::new(&self.schema, &self.registry).with_options(self.options(engine))
    }
}

/// Exact counts a pass observes; identical on every pass.
#[derive(Default, PartialEq, Debug, Clone, Copy)]
struct Counts {
    scan_records: usize,
    interp_records: usize,
    interp_errors: u64,
    interp_bad_records: usize,
    vm_records: usize,
    batch_rows: usize,
    par_rows: usize,
    shards: usize,
    imbalance: f64,
}

fn schema_core(schema: &Schema) -> MetricsCore {
    MetricsCore::with_names(schema.types.iter().map(|d| d.name.as_str()))
}

/// One pass over every layer. Each call sits in its own span.
fn pass(t: &mut Tracer, cx: &Ctx<'_>) -> Counts {
    let record = cx.workload.record();
    let ignore = Mask::all(BaseMask::Ignore);
    let vet = Mask::all(BaseMask::CheckAndSet);
    let interp = cx.parser(Engine::Interp);
    let vm = cx.parser(Engine::Vm);
    let mut c = Counts::default();

    // Sub-millisecond calls are repeated so that one stall does not set
    // their median.
    for _ in 0..CHEAP_REPEATS {
        t.span("check.compile", |_| {
            black_box(pads_check::compile_with_lints(black_box(cx.src), &cx.registry).is_ok())
        });
        // Rung 0: record discovery, the count floor.
        c.scan_records = t.span("scan.frame", |_| corpus::framed(black_box(cx.body)));
    }

    // Rungs 1-2: selection (base reads, no constraints) and vetting,
    // alternated so the two rungs see the same machine conditions.
    for round in 0..LADDER_ROUNDS {
        t.span("interp.select", |_| {
            black_box(interp.records(cx.body, record, &ignore).count())
        });
        let counted = t.span("interp.vet", |_| {
            let (mut n, mut errors, mut bad) = (0, 0, 0);
            for (v, pd) in interp.records(cx.body, record, &vet) {
                n += 1;
                errors += u64::from(pd.nerr);
                bad += usize::from(!pd.is_ok());
                black_box(v);
            }
            (n, errors, bad)
        });
        if round == 0 {
            (c.interp_records, c.interp_errors, c.interp_bad_records) = counted;
        }
    }

    // The VM tier: compile on a cold program cache (a fresh registry is a
    // fresh cache key), then the same one-record parse warm.
    for _ in 0..CHEAP_REPEATS {
        t.span("vm.cold", |t| {
            let registry = Registry::standard();
            let cold = PadsParser::new(&cx.schema, &registry).with_options(cx.options(Engine::Vm));
            t.span("vm.cold_call", |_| {
                black_box(cold.records(cx.first, record, &vet).count())
            });
            t.span("vm.warm_call", |_| {
                black_box(cold.records(cx.first, record, &vet).count())
            });
        });
    }
    t.span("vm.select", |_| {
        black_box(vm.records(cx.body, record, &ignore).count())
    });
    c.vm_records = t.span("vm.vet", |_| {
        black_box(vm.records(cx.body, record, &vet).count())
    });

    t.span("generated.vet", |_| {
        let mut cur = Cursor::new(cx.body).with_policy(cx.policy);
        let mut n = 0usize;
        while !cur.at_eof() {
            match cx.workload {
                Workload::SiriusOrders => {
                    black_box(pads::generated::sirius::EntryT::read(&mut cur, &vet));
                }
                Workload::ClfWeblog | Workload::ClfFaulty => {
                    black_box(pads::generated::clf::EntryT::read(&mut cur, &vet));
                }
            }
            n += 1;
        }
        n
    });

    // Rung 3: the whole-source value tree the CLI's default parse builds.
    t.span("value.whole_tree", |_| {
        black_box(interp.parse_source(cx.data, &vet))
    });

    let batch = t.span("batch.build", |_| {
        interp.records_batched(cx.body, record, &vet).0
    });
    c.batch_rows = batch.len();

    // Rung 5: shard planning and the sharded parse.
    let mut plan = None;
    for _ in 0..CHEAP_REPEATS {
        plan = Some(t.span("par.plan", |_| {
            pads_runtime::plan_shards(cx.body, RecordDiscipline::Newline, Charset::Ascii, cx.jobs)
        }));
    }
    let plan = plan.expect("CHEAP_REPEATS is at least 1");
    c.shards = plan.shards.len();
    let per: Vec<usize> = plan.shards.iter().map(|s| s.records).collect();
    let mean = per.iter().sum::<usize>() as f64 / per.len() as f64;
    c.imbalance = per.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0);
    t.span("par.records", |_| {
        black_box(interp.records_par(cx.body, record, &vet, cx.jobs))
    });
    c.par_rows = t.span("par.batched", |_| {
        interp
            .records_par_batched(cx.body, record, &vet, cx.jobs)
            .0
            .len()
    });

    // Observation: the dense metrics core, sequential and per worker.
    t.span("observe.records_metrics", |_| {
        let p = cx
            .parser(Engine::Interp)
            .with_metrics(schema_core(&cx.schema).into_handle());
        black_box(p.records(cx.body, record, &vet).count())
    });
    t.span("observe.par_records_metrics", |_| {
        let factory = || {
            let core = schema_core(&cx.schema).into_handle();
            let att = WorkerObs::metrics(core.clone());
            let harvest: Box<dyn FnMut() -> MetricsCore> =
                Box::new(move || core.borrow_mut().drain());
            (att, harvest)
        };
        black_box(interp.records_par_observed(cx.body, record, &vet, cx.jobs, factory))
    });

    // Rung 4: sinks over prebuilt values.
    let items: Vec<_> = t.span("sink.collect", |_| {
        interp.records(cx.body, record, &vet).collect()
    });
    t.span("acc.rowwise", |_| {
        let mut acc = Accumulator::new(&cx.schema, record);
        for (v, pd) in &items {
            acc.add(v, pd);
        }
        black_box(acc.report("<top>"))
    });
    t.span("acc.columnar", |_| {
        let mut acc = Accumulator::new(&cx.schema, record);
        acc.add_batch(&batch);
        black_box(acc.report("<top>"))
    });
    t.span("fmt.format", |_| {
        let fmt = Formatter::new(&["|"]);
        black_box(
            items
                .iter()
                .map(|(v, _)| fmt.format(v).len())
                .sum::<usize>(),
        )
    });
    c
}

fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Runs traced and untraced passes alternately for `seconds` (at least
/// one of each), writes `spans.jsonl` into `dir`, and returns the
/// per-layer metrics as one JSON object.
pub fn run(
    workload: Workload,
    dir: &Path,
    seconds: f64,
    jobs: usize,
    max_errs: Option<u64>,
) -> Result<String, String> {
    let workload_name = workload.name();
    let data = std::fs::read(dir.join("data.log")).map_err(|e| format!("data.log: {e}"))?;
    let header_len = match workload.header() {
        Some(_) => corpus::after_lines(&data, 1),
        None => 0,
    };
    let body = &data[header_len..];
    let first_len = corpus::after_lines(body, 1);
    let registry = Registry::standard();
    let schema = pads_check::compile(workload.description(), &registry)
        .map_err(|e| format!("description: {e}"))?;
    let cx = Ctx {
        workload,
        src: workload.description(),
        schema,
        registry,
        data: &data,
        body,
        first: &body[..first_len],
        policy: corpus::policy(max_errs),
        jobs,
    };

    let mut traced = Tracer::new(true, workload_name);
    let mut untraced = Tracer::new(false, workload_name);
    let (mut traced_s, mut untraced_s) = (Vec::new(), Vec::new());
    let mut counts: Option<Counts> = None;
    let start = Instant::now();
    // The untraced pass runs first, so every traced pass finds the caches
    // and the allocator warm.
    while traced_s.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let u = pass(&mut untraced, &cx);
        untraced_s.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let c = traced.span("ladder.pass", |t| pass(t, &cx));
        traced_s.push(t0.elapsed().as_secs_f64());
        for got in [u, c] {
            match counts {
                Some(prev) if prev != got => {
                    return Err(format!("passes disagree: {prev:?} vs {got:?}"));
                }
                _ => counts = Some(got),
            }
        }
    }
    let c = counts.unwrap_or_default();
    if c.interp_records != c.scan_records
        || c.vm_records != c.scan_records
        || c.batch_rows != c.scan_records
        || c.par_rows != c.scan_records
    {
        return Err(format!("layers frame different record counts: {c:?}"));
    }
    std::fs::write(dir.join("spans.jsonl"), traced.jsonl())
        .map_err(|e| format!("spans.jsonl: {e}"))?;

    let ms = |name: &str| median(&traced.durations_ms(name));
    let interp_select = ms("interp.select");
    let interp_vet = ms("interp.vet");
    let batch_build = ms("batch.build");
    let par_batched = ms("par.batched");
    let metrics: Vec<(&str, f64)> = vec![
        ("check.compile_ms", ms("check.compile")),
        ("vm.cold_ms", ms("vm.cold_call") - ms("vm.warm_call")),
        ("vm.select_ms", ms("vm.select")),
        ("vm.vet_ms", ms("vm.vet")),
        ("scan.frame_ms", ms("scan.frame")),
        ("scan.records", c.scan_records as f64),
        ("interp.select_ms", interp_select),
        ("interp.vet_ms", interp_vet),
        (
            "interp.constraint_share",
            (interp_vet - interp_select) / interp_vet,
        ),
        ("interp.errors", c.interp_errors as f64),
        ("interp.bad_records", c.interp_bad_records as f64),
        ("generated.vet_ms", ms("generated.vet")),
        ("value.whole_tree_ms", ms("value.whole_tree")),
        ("batch.build_ms", batch_build),
        ("par.plan_ms", ms("par.plan")),
        ("par.shards", c.shards as f64),
        ("par.imbalance", c.imbalance),
        ("par.batched_ms", par_batched),
        ("par.speedup", batch_build / par_batched),
        ("acc.rowwise_ms", ms("acc.rowwise")),
        ("acc.columnar_ms", ms("acc.columnar")),
        ("fmt.format_ms", ms("fmt.format")),
        (
            "observe.metrics_overhead",
            ms("observe.records_metrics") / interp_vet,
        ),
        (
            "observe.par_metrics_overhead",
            ms("observe.par_records_metrics") / ms("par.records"),
        ),
        (
            "trace.overhead_ratio",
            median(&traced_s) / median(&untraced_s),
        ),
    ];

    eprintln!(
        "perfbench: {workload_name}: {} traced pass(es); self time per span:",
        traced_s.len()
    );
    for (name, self_ms) in traced.self_by_name() {
        eprintln!("  {name:<30} {:>10.3} ms", self_ms / traced_s.len() as f64);
    }
    let scan = ms("scan.frame");
    eprintln!(
        "perfbench: {workload_name}: ladder count {scan:.3} ms <= selection {interp_select:.3} ms \
         <= vetting {interp_vet:.3} ms: {}",
        if scan <= interp_select && interp_select <= interp_vet {
            "holds"
        } else {
            "VIOLATED"
        }
    );

    let mut out = String::from("{");
    for (i, (name, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {v:?}");
    }
    out.push('}');
    Ok(out)
}
