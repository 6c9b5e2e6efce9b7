//! `pads` — command-line tools generated from PADS descriptions.
//!
//! The original system shipped "wrappers that build tools to summarize the
//! data, format it, or convert it to XML" (§1). This binary is that
//! surface:
//!
//! ```text
//! pads check  <descr.pads> [--lint[=deny|warn|allow]] verify (and lint) a description
//!             [--lint-format=json]              machine-readable diagnostics
//! pads diff   <old.pads> <new.pads>             schema-evolution check (PD0xx)
//! pads parse  <descr.pads> <data> [--format {report,xml,none}]  parse; report, XML, or discard
//!             [--trace[=json]]                  dump the parse-span tree
//!             [--metrics[=prom|json]]           emit runtime metrics
//!             [--profile]                       per-node cost table on stderr
//!             [--jobs N]                        record-sharded parallel parse
//!             [--engine {interp,vm}]            execution engine (see docs/VM.md)
//!             [--journal <path> [--resume]]     durable ingest (see docs/DURABILITY.md)
//! pads profile <descr.pads> <data>              per-schema-node cost profile
//!             [--folded]                        folded stacks (flamegraph input)
//!             [--times]                         add sampled self-time column
//! pads accum  <descr.pads> <data> [--summaries]  §5.2 accumulator report
//! pads fmt    <descr.pads> <data> [opts]        §5.3.1 delimited output
//! pads xsd    <descr.pads>                      §5.3.2 XML Schema
//! pads query  <descr.pads> <data> <query>       §5.4 path query (counts matches)
//! pads gen    <descr.pads> [--records N]        §9 conforming random data
//! pads cobol  <copybook>                        copybook -> description
//! pads codegen <descr.pads>                     Rust parser source
//! ```
//!
//! Common options: `--ebcdic`, `--fixed <N>`, `--lenpfx <N>` select the
//! ambient coding / record discipline; `--record <T>` and `--header <T>`
//! pick the §5.2 source shape (default: inferred from the source type).
//! Error budgets (the C runtime's `Pmax_errs` discipline): `--max-errs <N>`,
//! `--max-record-errs <N>`, `--max-panic-skip <N>`, and
//! `--on-overflow <stop|skip|best-effort>`.
//!
//! Durable ingest: `--journal <path>` commits a write-ahead checkpoint
//! (byte offset, record index, error budget, metrics snapshot) every
//! `--checkpoint-records <N>` records or `--checkpoint-bytes <N>` bytes,
//! fsyncing every `--fsync-every <N>` commits; `--resume` continues a
//! killed run from the last valid checkpoint with identical results.
//! `--kill-after <N>` is the crash-test hook.
//!
//! `parse`, `profile`, `accum` and `fmt` all read the source through one
//! call to the ingest driver, [`PadsParser::ingest`], each with its own
//! consumer; only `query`, which needs the whole tree, parses the source
//! in one piece.
//!
//! Exit status: 0 on success, 2 when parsing completed but recorded errors
//! in the data, 3 when `pads check --lint` found findings at or above the
//! requested level **or `pads diff` found a breaking change**, 4 when
//! `--journal`/`--resume` found the journal unusable, 1 on hard failure
//! (bad usage, I/O, broken description).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use pads::{
    keep_record, BaseMask, Charset, Endian, Engine, ErrorCode, Ingest, Ingested, Loc, Mask,
    OnExhausted, PadsParser, ParseDesc, ParseOptions, ParseState, Progress, RecordDiscipline,
    RecoveryPolicy, Registry, ResumePoint, Schema, SourceShape, Value,
};
use pads_check::lint;
use pads_observe::{MetricsCore, MetricsHandle, MetricsSink, TraceSink, WorkerObs};

/// Exit status for "the data had errors but the run completed".
const EXIT_DATA_ERRORS: u8 = 2;

/// Exit status for "the description tripped `--lint` findings".
const EXIT_LINT: u8 = 3;

/// Exit status for "the checkpoint journal is unusable" (missing or
/// malformed on `--resume`, corrupt frames, wrong source).
const EXIT_JOURNAL: u8 = 4;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("pads: {msg}");
            ExitCode::FAILURE
        }
    }
}

struct Opts {
    positional: Vec<String>,
    charset: Charset,
    discipline: RecordDiscipline,
    record: Option<String>,
    header: Option<String>,
    records: usize,
    seed: u64,
    tracked: usize,
    top: usize,
    delim: String,
    date_fmt: Option<String>,
    /// `--format {report,xml,none}` (parse): the error report (default),
    /// the XML rendering, or nothing — the discard sink parses, prints no
    /// stdout output, and reports only through stderr and the exit code.
    /// `--xml` is shorthand for `--format xml`.
    format: OutputFormat,
    summaries: bool,
    policy: RecoveryPolicy,
    /// `--lint[=deny|warn|allow]`: run the lint passes; render findings at
    /// or above this level and exit 3 when any finding reaches it.
    lint: Option<lint::Level>,
    /// `--lint-format=json`: emit the findings as a deterministic JSON
    /// array on stdout instead of rustc-style text on stderr.
    lint_format: LintFormat,
    /// `--trace[=json]`: dump the parse-span tree (rendered, or JSONL).
    trace: Option<TraceFormat>,
    /// `--metrics[=prom|json]`: emit runtime metrics on stdout after the
    /// parse output, plus a throughput summary line on stderr.
    metrics: Option<MetricsFormat>,
    /// `--profile` (parse): attach the per-schema-node cost profiler and
    /// print the per-node cost table on stderr after the run.
    profile: bool,
    /// `--folded` (profile): emit folded-stack lines (flamegraph input)
    /// instead of the per-node table.
    folded: bool,
    /// `--times` (profile): append the sampled self-time column to the
    /// table (approximate wall-clock — not deterministic).
    times: bool,
    /// `--jobs N`: parse the source's records on up to N worker threads
    /// (record-sharded; byte-identical results to a sequential parse).
    jobs: usize,
    /// `--engine {interp,vm}`: which execution engine runs the schema —
    /// the IR interpreter (default) or the cached bytecode tier
    /// (byte-identical results; see docs/VM.md).
    engine: Engine,
    /// `--journal <path>`: commit checkpoints to this write-ahead journal.
    journal: Option<String>,
    /// `--resume`: continue from the journal's last valid checkpoint.
    resume: bool,
    /// `--checkpoint-records N`: commit every N records (default 1).
    checkpoint_records: u64,
    /// `--checkpoint-bytes N`: also commit once N source bytes have been
    /// consumed since the last checkpoint.
    checkpoint_bytes: Option<u64>,
    /// `--fsync-every N`: fsync the journal every N commits.
    fsync_every: usize,
    /// `--kill-after N` (test hook): stop abruptly — no final checkpoint —
    /// after N records have been consumed this run.
    kill_after: Option<u64>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum OutputFormat {
    Report,
    Xml,
    None,
}

impl std::str::FromStr for OutputFormat {
    type Err = String;
    fn from_str(s: &str) -> Result<OutputFormat, String> {
        match s {
            "report" => Ok(OutputFormat::Report),
            "xml" => Ok(OutputFormat::Xml),
            "none" => Ok(OutputFormat::None),
            other => Err(format!("--format: expected report, xml, or none, got `{other}`")),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    Tree,
    Json,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum LintFormat {
    Text,
    Json,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum MetricsFormat {
    Prom,
    Json,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        positional: Vec::new(),
        charset: Charset::Ascii,
        discipline: RecordDiscipline::Newline,
        record: None,
        header: None,
        records: 10,
        seed: 1,
        tracked: 1000,
        top: 10,
        delim: "|".to_owned(),
        date_fmt: None,
        format: OutputFormat::Report,
        summaries: false,
        policy: RecoveryPolicy::unlimited(),
        lint: None,
        lint_format: LintFormat::Text,
        trace: None,
        metrics: None,
        profile: false,
        folded: false,
        times: false,
        jobs: 1,
        engine: Engine::Interp,
        journal: None,
        resume: false,
        checkpoint_records: 1,
        checkpoint_bytes: None,
        fsync_every: pads_journal::DEFAULT_FSYNC_EVERY,
        kill_after: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut grab = |name: &str| {
            it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--ebcdic" => o.charset = Charset::Ebcdic,
            "--fixed" => {
                let n: usize = grab("--fixed")?.parse().map_err(|_| "--fixed: bad number")?;
                o.discipline = RecordDiscipline::FixedWidth(n);
            }
            "--lenpfx" => {
                let n: usize = grab("--lenpfx")?.parse().map_err(|_| "--lenpfx: bad number")?;
                o.discipline =
                    RecordDiscipline::LengthPrefixed { header_bytes: n, endian: Endian::Big };
            }
            "--record" => o.record = Some(grab("--record")?),
            "--header" => o.header = Some(grab("--header")?),
            "--records" => {
                o.records = grab("--records")?.parse().map_err(|_| "--records: bad number")?
            }
            "--seed" => o.seed = grab("--seed")?.parse().map_err(|_| "--seed: bad number")?,
            "--tracked" => {
                o.tracked = grab("--tracked")?.parse().map_err(|_| "--tracked: bad number")?
            }
            "--top" => o.top = grab("--top")?.parse().map_err(|_| "--top: bad number")?,
            "--jobs" => {
                let n: usize = grab("--jobs")?.parse().map_err(|_| "--jobs: bad number")?;
                if n == 0 {
                    return Err("--jobs: must be at least 1".into());
                }
                o.jobs = n;
            }
            "--engine" => {
                o.engine = match grab("--engine")?.as_str() {
                    "interp" => Engine::Interp,
                    "vm" => Engine::Vm,
                    other => {
                        return Err(format!("--engine: expected interp or vm, got `{other}`"))
                    }
                };
            }
            "--journal" => o.journal = Some(grab("--journal")?),
            "--resume" => o.resume = true,
            "--checkpoint-records" => {
                let n: u64 = grab("--checkpoint-records")?
                    .parse()
                    .map_err(|_| "--checkpoint-records: bad number")?;
                if n == 0 {
                    return Err("--checkpoint-records: must be at least 1".into());
                }
                o.checkpoint_records = n;
            }
            "--checkpoint-bytes" => {
                let n = grab("--checkpoint-bytes")?
                    .parse()
                    .map_err(|_| "--checkpoint-bytes: bad number")?;
                o.checkpoint_bytes = Some(n);
            }
            "--fsync-every" => {
                o.fsync_every =
                    grab("--fsync-every")?.parse().map_err(|_| "--fsync-every: bad number")?;
            }
            "--kill-after" => {
                o.kill_after = Some(
                    grab("--kill-after")?.parse().map_err(|_| "--kill-after: bad number")?,
                );
            }
            "--delim" => o.delim = grab("--delim")?,
            "--date-fmt" => o.date_fmt = Some(grab("--date-fmt")?),
            "--xml" => o.format = OutputFormat::Xml,
            "--format" => o.format = grab("--format")?.parse()?,
            flag if flag.starts_with("--format=") => {
                o.format = flag["--format=".len()..].parse()?;
            }
            "--summaries" => o.summaries = true,
            "--max-errs" => {
                let n = grab("--max-errs")?.parse().map_err(|_| "--max-errs: bad number")?;
                o.policy = o.policy.with_max_errs(n);
            }
            "--max-record-errs" => {
                let n = grab("--max-record-errs")?
                    .parse()
                    .map_err(|_| "--max-record-errs: bad number")?;
                o.policy = o.policy.with_max_record_errs(n);
            }
            "--max-panic-skip" => {
                let n = grab("--max-panic-skip")?
                    .parse()
                    .map_err(|_| "--max-panic-skip: bad number")?;
                o.policy = o.policy.with_max_panic_skip(n);
            }
            "--on-overflow" => {
                let mode: OnExhausted = grab("--on-overflow")?
                    .parse()
                    .map_err(|_| "--on-overflow: expected stop, skip, or best-effort")?;
                o.policy = o.policy.with_on_exhausted(mode);
            }
            "--lint" => o.lint = Some(lint::Level::Deny),
            flag if flag.starts_with("--lint=") => {
                o.lint = Some(match &flag["--lint=".len()..] {
                    "deny" => lint::Level::Deny,
                    "warn" => lint::Level::Warn,
                    "allow" => lint::Level::Allow,
                    other => {
                        return Err(format!(
                            "--lint: expected deny, warn, or allow, got `{other}`"
                        ))
                    }
                });
            }
            flag if flag.starts_with("--lint-format=") => {
                o.lint_format = match &flag["--lint-format=".len()..] {
                    "json" => LintFormat::Json,
                    "text" => LintFormat::Text,
                    other => {
                        return Err(format!(
                            "--lint-format: expected json or text, got `{other}`"
                        ))
                    }
                };
            }
            "--trace" => o.trace = Some(TraceFormat::Tree),
            flag if flag.starts_with("--trace=") => {
                o.trace = Some(match &flag["--trace=".len()..] {
                    "json" => TraceFormat::Json,
                    "tree" => TraceFormat::Tree,
                    other => return Err(format!("--trace: expected json or tree, got `{other}`")),
                });
            }
            "--profile" => o.profile = true,
            "--folded" => o.folded = true,
            "--times" => o.times = true,
            "--metrics" => o.metrics = Some(MetricsFormat::Prom),
            flag if flag.starts_with("--metrics=") => {
                o.metrics = Some(match &flag["--metrics=".len()..] {
                    "prom" => MetricsFormat::Prom,
                    "json" => MetricsFormat::Json,
                    other => {
                        return Err(format!("--metrics: expected prom or json, got `{other}`"))
                    }
                });
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => o.positional.push(a.clone()),
        }
    }
    Ok(o)
}

fn load_schema(path: &str, registry: &Registry) -> Result<Schema, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    pads::compile(&src, registry).map_err(|e| {
        if let pads::CompileError::Syntax(se) = &e {
            let (line, col) = se.line_col(&src);
            format!("{path}:{line}:{col}: {e}")
        } else {
            format!("{path}: {e}")
        }
    })
}

/// Errors the plain-text report lists before eliding the rest.
const REPORT_ERRORS: usize = 25;

/// The source descriptor folded step by step: the error count, first
/// errors and per-code counts that [`print_report`] and [`error_summary`]
/// print, without keeping the records; the state comes from the driver.
#[derive(Default)]
struct Summary {
    state: ParseState,
    nerr: u32,
    /// The first [`REPORT_ERRORS`] `(path, code, loc)` triples, in the
    /// order [`ParseDesc::errors`] lists them for the whole source.
    shown: Vec<(String, ErrorCode, Option<Loc>)>,
    counts: BTreeMap<ErrorCode, u64>,
}

impl Summary {
    /// Folds in a descriptor found at `prefix` (built only when the
    /// descriptor has errors to name).
    fn add(&mut self, pd: &ParseDesc, prefix: impl FnOnce() -> String) {
        if pd.nerr == 0 {
            return;
        }
        self.nerr += pd.nerr;
        if self.shown.len() >= REPORT_ERRORS {
            pd.visit_error_codes(&mut |code| self.count(code));
            return;
        }
        let prefix = prefix();
        for (path, code, loc) in pd.errors() {
            if self.shown.len() < REPORT_ERRORS {
                let path = match (prefix.is_empty(), path.is_empty()) {
                    (true, _) => path,
                    (false, true) => prefix.clone(),
                    (false, false) => format!("{prefix}.{path}"),
                };
                self.shown.push((path, code, loc));
            }
            self.count(code);
        }
    }

    /// The root error a budget stop leaves on the source, listed first.
    fn stop(&mut self, loc: Loc) {
        self.nerr += 1;
        self.shown.insert(0, (String::new(), ErrorCode::BudgetExhausted, Some(loc)));
        self.shown.truncate(REPORT_ERRORS);
        self.count(ErrorCode::BudgetExhausted);
    }

    fn count(&mut self, code: ErrorCode) {
        *self.counts.entry(code).or_default() += 1;
    }

    fn is_ok(&self) -> bool {
        self.nerr == 0
    }
}

/// Prints the error-summary line — a count per distinct `ErrorCode` — to
/// stderr, so scripts can separate the data diagnosis from stdout output.
fn error_summary(summary: &Summary, source: &str) {
    let mut counts: Vec<(String, u64)> =
        summary.counts.iter().map(|(code, n)| (code.to_string(), *n)).collect();
    counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let detail: Vec<String> =
        counts.into_iter().map(|(k, n)| format!("{k}: {n}")).collect();
    eprintln!(
        "pads: {} error(s) in {source} [{}] ({})",
        summary.nerr,
        summary.state,
        if detail.is_empty() { "no detail retained".to_owned() } else { detail.join(", ") }
    );
}

/// The plain-text record report (stdout).
fn print_report(summary: &Summary) {
    println!("parse state: {} errors: {}", summary.state, summary.nerr);
    for (path, code, loc) in &summary.shown {
        match loc {
            Some(l) => println!("  {path}: {code} at record {}", l.begin.record),
            None => println!("  {path}: {code}"),
        }
    }
    if summary.nerr as usize > REPORT_ERRORS {
        println!("  … ({} more)", summary.nerr as usize - REPORT_ERRORS);
    }
}

/// Rejects `--record`/`--header` names that are not declared in the schema
/// before they reach an accumulator (which would otherwise abort).
fn validate_type(schema: &Schema, name: &str) -> Result<(), String> {
    if schema.type_id(name).is_none() {
        return Err(format!("type `{name}` is not declared in the description"));
    }
    Ok(())
}

/// A dense metrics core pre-interned with the schema's type names in
/// `TypeId` order — the ids the interpreter emits — so the hot path
/// trusts ids and never does a name lookup.
fn schema_core(schema: &Schema) -> MetricsCore {
    MetricsCore::with_names(schema.types.iter().map(|d| d.name.as_str()))
}

/// CPU time consumed so far (user + system, milliseconds), from
/// `/proc/self/stat`; `None` off Linux or if the fields are unreadable.
fn cpu_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The comm field may contain spaces but is parenthesised; utime and
    // stime are the 12th and 13th fields after the closing paren.
    let after = stat.rsplit(')').next()?;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    let hz = 100.0; // USER_HZ on Linux
    Some((utime + stime) * 1000.0 / hz)
}

/// Peak resident set size (KiB), from `VmHWM` in `/proc/self/status`;
/// `None` off Linux.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

/// The `--metrics` stderr summary: throughput from the sink, plus CPU
/// time and peak RSS when the probes are available, so one line answers
/// "how expensive was this run".
fn metrics_summary_line(sink: &MetricsSink) -> String {
    let mut line = format!("pads: {}", sink.summary_line());
    if let Some(ms) = cpu_ms() {
        let _ = write!(line, ", cpu {ms:.0} ms");
    }
    if let Some(kb) = peak_rss_kb() {
        let _ = write!(line, ", peak rss {kb} KiB");
    }
    line
}

/// Per-worker observation factory for parallel metrics: each worker gets
/// its own dense [`MetricsCore`] (pre-interned, trusted ids), and the
/// harvest closure drains the counters accumulated since its previous
/// call — `drain` keeps the interning table with the live core, so the
/// worker's dense ids stay valid — yielding per-record deltas that fold
/// exactly in merge order.
fn metrics_factory(
    schema: &Schema,
) -> impl Fn() -> (WorkerObs, Box<dyn FnMut() -> MetricsCore>) + Sync + '_ {
    move || {
        let core = schema_core(schema).into_handle();
        let att = WorkerObs::metrics(core.clone());
        let harvest: Box<dyn FnMut() -> MetricsCore> =
            Box::new(move || core.borrow_mut().drain());
        (att, harvest)
    }
}

/// A description and its data, loaded for a subcommand that reads
/// records, with the source shape read off the description.
struct Input {
    schema: Schema,
    data: Vec<u8>,
    shape: SourceShape,
    options: ParseOptions,
}

/// The observation a run attaches: a dense metrics core (with the
/// profiler or the span trace, when asked for) for the source-level
/// events and whatever the calling thread parses, and the core that
/// per-record deltas fold into when records are parsed on their own cores
/// (one per worker).
#[derive(Default)]
struct Observe {
    core: Option<MetricsHandle>,
    records: Option<MetricsHandle>,
}

impl Input {
    fn load(o: &Opts, registry: &Registry, options: ParseOptions) -> Result<Input, String> {
        let schema = load_schema(&o.positional[0], registry)?;
        let data =
            std::fs::read(&o.positional[1]).map_err(|e| format!("{}: {e}", o.positional[1]))?;
        let shape = SourceShape::of(&schema);
        Ok(Input { schema, data, shape, options })
    }

    /// The shape `accum` and `fmt` read: a headerless source's own shape
    /// (so a source with source-level checks is read whole); otherwise
    /// the header and record names, from the source or from
    /// `--header`/`--record`, read as §5.2's generated programs read them —
    /// the header once, then records to the end, whatever the header held.
    fn record_shape(&self, o: &Opts) -> Result<SourceShape, String> {
        let headerless = o.header.is_none() && self.shape.header.is_none();
        if headerless && o.record.is_none() && self.shape.record.is_some() {
            return Ok(self.shape.clone());
        }
        let record = o
            .record
            .clone()
            .or_else(|| self.shape.record.clone())
            .ok_or("cannot infer the record type; pass --record <T>")?;
        validate_type(&self.schema, &record)?;
        match o.header.clone().or_else(|| self.shape.header.clone()) {
            Some(header) => {
                validate_type(&self.schema, &header)?;
                Ok(SourceShape::with_header(&header, &record))
            }
            None => Ok(SourceShape::records(&record)),
        }
    }

    /// The one ingest call site: reads the data as `shape` says on up to
    /// `jobs` workers from `resume`, projecting each record with `project`
    /// where it was parsed and handing every step to `consume`.
    #[allow(clippy::too_many_arguments)]
    fn ingest<Q: Send>(
        &self,
        registry: &Registry,
        shape: &SourceShape,
        jobs: usize,
        resume: ResumePoint,
        observe: &Observe,
        project: impl Fn(Value, ParseDesc) -> Q + Sync,
        mut consume: impl FnMut(Ingest<'_, MetricsCore, Q>),
    ) -> Ingested {
        let mut parser = PadsParser::new(&self.schema, registry).with_options(self.options);
        if let Some(core) = &observe.core {
            parser = parser.with_metrics(core.clone());
        }
        let factory = metrics_factory(&self.schema);
        let workers = observe.records.as_ref().map(|_| &factory);
        let mask = Mask::all(BaseMask::CheckAndSet);
        parser.ingest(&self.data, shape, &mask, jobs, resume, workers, project, |step| {
            if let (Ingest::Record(_, Some(delta), _), Some(core)) = (&step, &observe.records) {
                core.borrow_mut().merge(delta);
            }
            consume(step);
        })
    }
}

/// FNV-1a fingerprint over (length, first 64 bytes, last 64 bytes) of the
/// source: cheap, stable identification of "the same data file" across
/// runs, recorded in every checkpoint so `--resume` can reject a journal
/// written for different data.
fn source_fingerprint(data: &[u8]) -> u64 {
    fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        h
    }
    let mut h = 0xcbf2_9ce4_8422_2325;
    h = fnv(h, &(data.len() as u64).to_le_bytes());
    h = fnv(h, &data[..data.len().min(64)]);
    h = fnv(h, &data[data.len().saturating_sub(64)..]);
    h
}

/// `pads parse --journal <path>`: commits a checkpoint — byte offset,
/// record index, error budget, metrics snapshot — at the configured
/// cadence as records are consumed, so a killed run can `--resume` from
/// the last valid checkpoint with byte-identical results. See
/// docs/DURABILITY.md for the format and guarantees.
struct Committer {
    journal: pads_journal::Journal,
    source_id: u64,
    every_records: u64,
    every_bytes: Option<u64>,
    records_since: u64,
    bytes_since: u64,
    /// First unconsumed (byte, record): the final commit's position.
    last: (u64, u64),
    /// Records consumed this run.
    consumed: u64,
    kill_after: Option<u64>,
    killed: bool,
    failed: Option<pads_journal::JournalError>,
}

impl Committer {
    /// Opens (`--resume`) or starts the journal at `path`, returning the
    /// committer, where to resume, and the restored metrics. A torn tail
    /// is repaired with a notice; anything structurally unsound, or a
    /// journal for other data, is an error.
    fn open(
        o: &Opts,
        path: &str,
        data: &[u8],
    ) -> Result<(Committer, ResumePoint, MetricsCore), pads_journal::JournalError> {
        let source_id = source_fingerprint(data);
        let path = std::path::Path::new(path);
        let (journal, resume, restored) = if o.resume {
            let (journal, repaired) = pads_journal::Journal::open(path)?;
            if let Some(r) = repaired {
                eprintln!(
                    "pads: journal: {}: dropped {} trailing byte(s); {} checkpoint(s) kept",
                    ErrorCode::JournalTornTail.name(),
                    r.dropped_bytes,
                    r.checkpoints_kept
                );
            }
            match journal.last() {
                Some(cp) if cp.source_id != source_id => {
                    return Err(pads_journal::JournalError {
                        code: ErrorCode::JournalSourceMismatch,
                        detail: format!(
                            "journal is for source {:#018x}, data is {:#018x}",
                            cp.source_id, source_id
                        ),
                    });
                }
                Some(cp) => {
                    let core = MetricsCore::restore(&cp.metrics);
                    if core.is_none() {
                        eprintln!(
                            "pads: journal: metrics snapshot unreadable; counters restart at the checkpoint"
                        );
                    }
                    let resume = ResumePoint {
                        offset: cp.offset as usize,
                        record: cp.record as usize,
                        budget: cp.budget,
                    };
                    (journal, resume, core.unwrap_or_default())
                }
                None => (journal, ResumePoint::default(), MetricsCore::new()),
            }
        } else {
            (pads_journal::Journal::create(path)?, ResumePoint::default(), MetricsCore::new())
        };
        let committer = Committer {
            journal: journal.with_fsync_every(o.fsync_every),
            source_id,
            every_records: o.checkpoint_records,
            every_bytes: o.checkpoint_bytes,
            records_since: 0,
            bytes_since: 0,
            last: (resume.offset as u64, resume.record as u64),
            consumed: 0,
            kill_after: o.kill_after,
            killed: false,
            failed: None,
        };
        Ok((committer, resume, restored))
    }

    /// Accounts one consumed record and commits if a checkpoint interval
    /// elapsed. Returns `false` — the record is not part of this run —
    /// once the run was killed or a commit failed.
    fn on_record(&mut self, progress: &Progress, metrics: &MetricsCore) -> bool {
        if self.killed || self.failed.is_some() {
            return false;
        }
        self.consumed += 1;
        let offset = progress.end_offset as u64;
        self.records_since += 1;
        self.bytes_since += offset.saturating_sub(self.last.0);
        self.last = (offset, progress.record as u64 + 1);
        let due = self.records_since >= self.every_records
            || self.every_bytes.is_some_and(|b| self.bytes_since >= b);
        if due {
            if let Err(e) = self.commit(progress.budget, metrics) {
                self.failed = Some(e);
            }
        }
        self.killed = self.kill_after.is_some_and(|n| self.consumed >= n);
        true
    }

    /// Commits at the last consumed position — unless it does not advance
    /// past the last checkpoint (a resumed run with nothing new), which is
    /// a no-op rather than an out-of-order error.
    fn commit(
        &mut self,
        budget: pads::ErrorBudget,
        metrics: &MetricsCore,
    ) -> Result<(), pads_journal::JournalError> {
        self.records_since = 0;
        self.bytes_since = 0;
        let (offset, record) = self.last;
        let advances = self.journal.last().is_none_or(|cp| {
            offset >= cp.offset && record >= cp.record && (offset > cp.offset || record > cp.record)
        });
        if !advances {
            return Ok(());
        }
        self.journal.commit(pads_journal::Checkpoint {
            source_id: self.source_id,
            offset,
            record,
            budget,
            metrics: metrics.snapshot(),
        })
    }
}

/// Reports an unusable journal: exit status 4.
fn journal_failure(err: &pads_journal::JournalError) -> ExitCode {
    eprintln!("pads: journal: {err}");
    ExitCode::from(EXIT_JOURNAL)
}

/// `pads parse`: the report, XML or nothing on stdout, plus the trace,
/// metrics and profile outputs, optionally journaled.
fn parse(o: &Opts, registry: &Registry, options: ParseOptions) -> Result<ExitCode, String> {
    let input = Input::load(o, registry, options)?;
    if o.journal.is_some() {
        // The journal records progress per record, which only makes sense
        // for a plain record-array source with the plain record report.
        if o.trace.is_some() {
            return Err("--journal cannot be combined with --trace".into());
        }
        if o.profile {
            return Err("--journal cannot be combined with --profile".into());
        }
        if o.format == OutputFormat::Xml {
            return Err("--journal cannot be combined with --format xml".into());
        }
        if !input.shape.plain_records() {
            return Err("--journal requires a plain record-array source".into());
        }
    }
    // The span trace and the profiler's frame stack need one ordered event
    // stream, and XML renders the whole tree, so it parses the source whole.
    let xml = o.format == OutputFormat::Xml;
    let mut jobs = o.jobs;
    if jobs > 1 && (o.trace.is_some() || o.profile || xml) {
        let flag = match (o.trace, o.profile) {
            (Some(_), _) => "--trace",
            (None, true) => "--profile",
            (None, false) => "--format xml",
        };
        eprintln!("pads: {flag} forces a sequential parse; ignoring --jobs");
        jobs = 1;
    }
    let mut shape = input.shape.clone();
    shape.exact &= !xml;
    let shape = &shape;

    let mut core = (o.metrics.is_some() || o.profile || o.journal.is_some() || o.trace.is_some())
        .then(|| schema_core(&input.schema));
    if let Some(core) = &mut core {
        if o.profile {
            core.enable_profile();
        }
        if o.trace.is_some() {
            // The span tree keeps 8 levels and the first 10 000 spans.
            core.enable_trace(8, 10_000);
        }
    }
    let core = core.map(MetricsCore::into_handle);
    // A checkpoint holds what the records contributed, on their own core;
    // the source type's own row belongs to each run, or a resumed run
    // would count it twice.
    let (mut committer, resume, records) = match &o.journal {
        Some(path) => match Committer::open(o, path, &input.data) {
            Ok((committer, resume, restored)) => {
                let mut records = schema_core(&input.schema);
                records.merge(&restored);
                (Some(committer), resume, Some(records.into_handle()))
            }
            Err(e) => return Ok(journal_failure(&e)),
        },
        None => (None, ResumePoint::default(), core.clone().filter(|_| jobs > 1)),
    };
    let observe = Observe { core, records };

    // The report folds each descriptor as it arrives: a record keeps only
    // a descriptor with errors, dropping the rest where it was parsed.
    // Only XML keeps the (whole) tree.
    let mut summary = Summary::default();
    let mut index = 0;
    let mut tree = None;
    let errors = |_, pd: ParseDesc| (pd.nerr > 0).then_some(pd);
    let end = input.ingest(registry, shape, jobs, resume, &observe, errors, |step| match step {
        Ingest::Header(_, pd) => summary.add(&pd, || shape.header_path().to_owned()),
        Ingest::Record(pd, _, progress) => {
            if let (Some(com), Some(records)) = (&mut committer, &observe.records) {
                if !com.on_record(progress, &records.borrow()) {
                    return;
                }
            }
            if let Some(pd) = pd {
                summary.add(&pd, || shape.record_path(index));
            }
            index += 1;
        }
        Ingest::Whole(value, pd) => {
            summary.add(&pd, String::new);
            tree = xml.then_some((value, pd));
        }
    });
    summary.state = end.state;
    if let Some(loc) = end.stop {
        summary.stop(loc);
    }

    if let (Some(mut com), Some(records)) = (committer.take(), &observe.records) {
        if let Some(e) = com.failed {
            return Ok(journal_failure(&e));
        }
        if com.killed {
            // Crash simulation: exit without the final commit or sync,
            // leaving exactly the periodic checkpoints a real kill would
            // have left.
            eprintln!(
                "pads: --kill-after: stopped after {} record(s); rerun with --resume",
                com.consumed
            );
            return Ok(ExitCode::SUCCESS);
        }
        let committed = com.commit(end.budget, &records.borrow());
        if let Err(e) = committed.and_then(|()| com.journal.sync()) {
            return Ok(journal_failure(&e));
        }
        if let Some(core) = &observe.core {
            core.borrow_mut().merge(&records.borrow());
        }
    }

    if let Some((value, pd)) = &tree {
        let root = &input.schema.source_def().name;
        print!("{}", pads_tools::value_to_xml(value, Some(pd), root, 0));
    } else if o.format == OutputFormat::Report && o.trace.is_none() && o.metrics.is_none() {
        print_report(&summary);
    }
    if let (Some(core), Some(fmt)) = (&observe.core, o.trace) {
        let t = TraceSink::from_core(&core.borrow());
        match fmt {
            TraceFormat::Json => print!("{}", t.jsonl()),
            TraceFormat::Tree => print!("{}", t.render()),
        }
    }
    if let Some(core) = &observe.core {
        if let Some(fmt) = o.metrics {
            let sink = MetricsSink::from_core(core.borrow().clone());
            match fmt {
                MetricsFormat::Prom => print!("{}", sink.prometheus()),
                MetricsFormat::Json => println!("{}", sink.counts_json()),
            }
            eprintln!("{}", metrics_summary_line(&sink));
        }
        if let Some(table) = core.borrow().profile_table(o.times).filter(|_| o.profile) {
            eprint!("{table}");
        }
    }

    // A resumed run's budget also carries the errors before the resume
    // point, which this run's descriptors never see.
    let budget = end.budget;
    if summary.is_ok() && budget.errs == 0 && budget.skipped_records == 0 {
        return Ok(ExitCode::SUCCESS);
    }
    let source = &o.positional[1];
    if summary.is_ok() {
        eprintln!("pads: {} error(s) in {source} (all before the resume point)", budget.errs);
    } else {
        // The run itself completed; the *data* has errors. Summarise on
        // stderr and use the distinct "data errors" status.
        error_summary(&summary, source);
    }
    Ok(ExitCode::from(EXIT_DATA_ERRORS))
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(
            "usage: pads <check|diff|parse|profile|accum|fmt|xsd|query|gen|cobol|codegen> …"
                .into(),
        );
    };
    let o = parse_opts(rest)?;
    let registry = Registry::standard();
    let options = ParseOptions {
        charset: o.charset,
        discipline: o.discipline,
        policy: o.policy,
        engine: o.engine,
        ..Default::default()
    };
    let need = |n: usize| -> Result<(), String> {
        if o.positional.len() < n {
            Err(format!("`pads {cmd}` needs {n} argument(s)"))
        } else {
            Ok(())
        }
    };

    match cmd.as_str() {
        "check" => {
            need(1)?;
            let path = &o.positional[0];
            let src = match std::fs::read_to_string(path) {
                Ok(src) => src,
                Err(e) => {
                    // A missing description is not a finding *in* any file:
                    // report it as a spanless diagnostic and fail hard.
                    let d = lint::Diagnostic {
                        code: "io",
                        level: lint::Level::Deny,
                        span: Default::default(),
                        message: format!("cannot read `{path}`: {e}"),
                        hint: None,
                    };
                    eprint!("{}", lint::render::render_diagnostic(&d, "", path));
                    return Ok(ExitCode::FAILURE);
                }
            };
            let (schema, diags) =
                pads_check::compile_with_lints(&src, &registry).map_err(|e| {
                    if let pads::CompileError::Syntax(se) = &e {
                        let (line, col) = se.line_col(&src);
                        format!("{path}:{line}:{col}: {e}")
                    } else {
                        format!("{path}: {e}")
                    }
                })?;
            // `--lint-format=json` without `--lint` still runs the lints
            // (at the default deny threshold for the exit status).
            let threshold = match (o.lint, o.lint_format) {
                (Some(t), _) => Some(t),
                (None, LintFormat::Json) => Some(lint::Level::Deny),
                (None, LintFormat::Text) => None,
            };
            if let Some(threshold) = threshold {
                match o.lint_format {
                    // Render at the *chosen* threshold, so `--lint=allow`
                    // reveals the Allow-level notes (PL206, PL304, …).
                    LintFormat::Text => eprint!(
                        "{}",
                        lint::render::render_all(&diags, &src, path, threshold)
                    ),
                    // The JSON stream always carries every finding;
                    // machine consumers filter by level themselves.
                    LintFormat::Json => {
                        print!("{}", lint::render::render_json(&diags, &src, path));
                    }
                }
                if diags.any_at(threshold) {
                    return Ok(ExitCode::from(EXIT_LINT));
                }
            }
            // With `--lint-format=json`, stdout is reserved for the JSON
            // report; the human summary moves to stderr.
            let ok_line = format!(
                "ok: {} type(s), source `{}`",
                schema.types.len(),
                schema.source_def().name
            );
            match o.lint_format {
                LintFormat::Text => println!("{ok_line}"),
                LintFormat::Json => eprintln!("{ok_line}"),
            }
            Ok(ExitCode::SUCCESS)
        }
        "diff" => {
            // Schema-evolution check: classify old → new on the
            // compatible < widens < narrows < breaks lattice. Breaking
            // changes exit 3 — the same "static gate tripped" status as
            // `check --lint` — so registries can gate hot reloads on it.
            need(2)?;
            let old = load_schema(&o.positional[0], &registry)?;
            let new = load_schema(&o.positional[1], &registry)?;
            let report = pads_check::diff::diff_schemas(&old, &new);
            print!("{}", report.render());
            if report.breaks() {
                Ok(ExitCode::from(EXIT_LINT))
            } else {
                Ok(ExitCode::SUCCESS)
            }
        }
        "parse" => {
            need(2)?;
            parse(&o, &registry, options)
        }
        "profile" => {
            // Per-schema-node cost profile: parse the source sequentially
            // with a profiling dense core attached, then print the
            // per-node cost table — or, with `--folded`, folded-stack
            // lines for `inferno`/flamegraph tooling. Both outputs are
            // deterministic for a given input unless `--times` opts into
            // the sampled (approximate) self-time column.
            need(2)?;
            let input = Input::load(&o, &registry, options)?;
            if o.jobs > 1 {
                eprintln!("pads: --profile forces a sequential parse; ignoring --jobs");
            }
            let core = schema_core(&input.schema).with_profile().into_handle();
            let observe = Observe { core: Some(core.clone()), ..Observe::default() };
            let mut ok = true;
            let start = ResumePoint::default();
            let shape = &input.shape;
            let end = input.ingest(&registry, shape, 1, start, &observe, |_, pd| pd, |step| {
                let (Ingest::Header(_, pd) | Ingest::Record(pd, ..) | Ingest::Whole(_, pd)) = step;
                ok &= pd.is_ok();
            });
            let core = core.borrow();
            if o.folded {
                if let Some(folded) = core.profile_folded() {
                    print!("{folded}");
                }
            } else if let Some(table) = core.profile_table(o.times) {
                print!("{table}");
            }
            eprintln!(
                "pads: profile: {} record(s), {} error(s) in {}",
                core.records(),
                core.errors_total(),
                o.positional[1]
            );
            if ok && end.stop.is_none() {
                Ok(ExitCode::SUCCESS)
            } else {
                Ok(ExitCode::from(EXIT_DATA_ERRORS))
            }
        }
        "accum" => {
            need(2)?;
            let input = Input::load(&o, &registry, options)?;
            let shape = input.record_shape(&o)?;
            let cfg = pads_tools::AccConfig {
                tracked: o.tracked,
                top_k: o.top,
                // §9 histogram/quantile summaries, on request.
                summaries: o.summaries.then_some((16, 1024)),
            };
            let record = shape.record.as_deref().unwrap_or_default();
            let mut acc = pads_tools::Accumulator::with_config(&input.schema, record, cfg);
            let (start, observe) = (ResumePoint::default(), Observe::default());
            input.ingest(&registry, &shape, o.jobs, start, &observe, keep_record, |step| {
                shape.records_in(step, |value, pd| acc.add(&value, &pd));
            });
            print!("{}", acc.report("<top>"));
            if acc.bad_records > 0 {
                eprintln!("pads: {} bad record(s) in {}", acc.bad_records, o.positional[1]);
                Ok(ExitCode::from(EXIT_DATA_ERRORS))
            } else {
                Ok(ExitCode::SUCCESS)
            }
        }
        "fmt" => {
            need(2)?;
            let input = Input::load(&o, &registry, options)?;
            let shape = input.record_shape(&o)?;
            let mut fmt = pads_tools::Formatter::new(&[o.delim.as_str()]);
            if let Some(df) = &o.date_fmt {
                fmt = fmt.with_date_format(df);
            }
            let mut out = String::new();
            let (start, observe) = (ResumePoint::default(), Observe::default());
            input.ingest(&registry, &shape, o.jobs, start, &observe, keep_record, |step| {
                shape.records_in(step, |value, _| {
                    out.push_str(&fmt.format(&value));
                    out.push('\n');
                });
            });
            print!("{out}");
            Ok(ExitCode::SUCCESS)
        }
        "xsd" => {
            need(1)?;
            let schema = load_schema(&o.positional[0], &registry)?;
            print!("{}", pads_tools::schema_to_xsd(&schema));
            Ok(ExitCode::SUCCESS)
        }
        "query" => {
            need(3)?;
            let schema = load_schema(&o.positional[0], &registry)?;
            let data =
                std::fs::read(&o.positional[1]).map_err(|e| format!("{}: {e}", o.positional[1]))?;
            let parser = PadsParser::new(&schema, &registry).with_options(options);
            let mask = Mask::all(BaseMask::CheckAndSet);
            let (v, pd) = parser.parse_source(&data, &mask);
            let root = pads_query::Node::root(&schema.source_def().name, &v, Some(&pd));
            let q = pads_query::Query::parse(&o.positional[2]).map_err(|e| e.to_string())?;
            println!("{}", q.count(&root));
            Ok(ExitCode::SUCCESS)
        }
        "gen" => {
            need(1)?;
            let schema = load_schema(&o.positional[0], &registry)?;
            let record = o
                .record
                .or(SourceShape::of(&schema).record)
                .ok_or("cannot infer the record type; pass --record <T>")?;
            validate_type(&schema, &record)?;
            let config = pads_gen::GenConfig { seed: o.seed, ..Default::default() };
            let mut g = pads_gen::Generator::new(&schema, config);
            let out = g.generate_records(&record, o.records);
            use std::io::Write;
            std::io::stdout().write_all(&out).map_err(|e| e.to_string())?;
            Ok(ExitCode::SUCCESS)
        }
        "cobol" => {
            need(1)?;
            let copybook = std::fs::read_to_string(&o.positional[0])
                .map_err(|e| format!("{}: {e}", o.positional[0]))?;
            let description = pads_cobol::translate(&copybook).map_err(|e| e.to_string())?;
            print!("{description}");
            Ok(ExitCode::SUCCESS)
        }
        "codegen" => {
            need(1)?;
            let schema = load_schema(&o.positional[0], &registry)?;
            let module = pads_codegen::generate_rust(&schema, &o.positional[0])
                .map_err(|e| e.to_string())?;
            print!("{module}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`")),
    }
}
