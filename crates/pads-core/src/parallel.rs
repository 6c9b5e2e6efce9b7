//! The ingest driver: one call through which every tool reads records.
//!
//! The paper gives each type one read function, exposed at whole-source,
//! record and element granularity (§4). [`SourceShape::of`] reads off the
//! source type, once, how a source divides into an optional header and
//! repeated records, and whether streaming them reproduces
//! [`PadsParser::parse_source`] exactly. [`PadsParser::ingest`] then
//! parses the header on the calling thread and runs the records behind it
//! through the sharded engine of [`pads_runtime::par`]: a pool of worker
//! threads, each with one thread-local parser, parses record-aligned
//! chunks, and an in-order merge hands each record to the consumer with a
//! [`Progress`] cursor (committed offset, record index, budget), so a
//! journal can commit during the run. Values, descriptors (rebased to
//! global coordinates) and the [`ErrorBudget`] are byte-identical to a
//! sequential parse under every recovery policy. A source that is not
//! exactly its header and records is parsed whole instead of losing its
//! source-level checks.
//!
//! The consumer's per-record *projection* runs where the record was
//! parsed, on a worker or, at one job, on the calling thread: a consumer
//! that keeps only part of each record (`pads parse` keeps the descriptors
//! of records with errors) has the rest freed on the thread that built it.
//! The driver reads what it folds itself (the descriptor's error count and
//! syntax-error state) before projecting; [`keep_record`] is the identity
//! projection.
//!
//! Observation is per-worker: a *factory* builds one [`WorkerObs`]
//! metrics core per worker thread (handles never cross threads) plus a
//! harvest closure drained once per record, whose deltas reach the
//! consumer in merge order. Records parsed on the calling thread without a
//! factory, and the source type's own events, go to the parser's own
//! core, so metrics, profiles and traces match a whole-source parse.

use pads_check::ir::{MemberIr, Schema, TypeId, TypeKind, TyUse};
use pads_runtime::par::{self, Chunks, Progress, RecordMsg};
use pads_runtime::{
    ErrorBudget, ErrorCode, Loc, Mask, ParseDesc, ParseState, PdKind, Pos, RecoveryPolicy,
    ResumePoint, WorkerObs,
};

use crate::parse::{has_syntax_error, PadsParser, ParseOptions};
use crate::value::Value;

type RecordItems = Vec<(Value, ParseDesc)>;

/// How a source divides into an optional header and repeated records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceShape {
    /// Name of the header type parsed once at the start, if any.
    pub header: Option<String>,
    /// Name of the record type repeated to the end of the input, if any.
    pub record: Option<String>,
    /// Whether the header then the records reproduce
    /// [`PadsParser::parse_source`] exactly; if not, the driver parses the
    /// source whole.
    pub exact: bool,
    /// The source type around the records, when read off the schema.
    frame: Option<Frame>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Frame {
    source: TypeId,
    /// For a header struct: the header field, the records field, and the
    /// records array type.
    fields: Option<(String, String, TypeId)>,
}

impl SourceShape {
    /// Reads the shape off the schema's source type: an array of records,
    /// or a struct of a header field and an array-of-records field. Any
    /// other source has no record type.
    pub fn of(schema: &Schema) -> SourceShape {
        let src = schema.source();
        let def = schema.source_def();
        let plain = !def.is_record && def.params.is_empty() && def.where_clause.is_none();
        let frame = |fields| Some(Frame { source: src, fields });
        if let Some((record, exact)) = records_array(schema, src) {
            return SourceShape { header: None, record: Some(record), exact, frame: frame(None) };
        }
        if let TypeKind::Struct { members } = &def.kind {
            if let [MemberIr::Field(h), MemberIr::Field(r)] = members.as_slice() {
                if let (TyUse::Named { id: hid, args: ha }, TyUse::Named { id: rid, args: ra }) =
                    (&h.ty, &r.ty)
                {
                    if let Some((record, exact)) = records_array(schema, *rid) {
                        let bare = ha.is_empty() && ra.is_empty();
                        let unconstrained = h.constraint.is_none() && r.constraint.is_none();
                        return SourceShape {
                            header: Some(schema.def(*hid).name.clone()),
                            record: Some(record),
                            exact: exact && plain && bare && unconstrained,
                            frame: frame(Some((h.name.clone(), r.name.clone(), *rid))),
                        };
                    }
                }
            }
        }
        SourceShape { header: None, record: None, exact: false, frame: None }
    }

    /// A source the caller declares to be nothing but `record`s.
    pub fn records(record: &str) -> SourceShape {
        SourceShape { header: None, record: Some(record.to_owned()), exact: true, frame: None }
    }

    /// A source the caller declares to be a `header` followed by `record`s.
    pub fn with_header(header: &str, record: &str) -> SourceShape {
        SourceShape { header: Some(header.to_owned()), ..SourceShape::records(record) }
    }

    /// Whether the source is exactly a plain record array, with no header.
    pub fn plain_records(&self) -> bool {
        self.exact && self.header.is_none()
    }

    fn fields(&self) -> Option<&(String, String, TypeId)> {
        self.frame.as_ref().and_then(|f| f.fields.as_ref())
    }

    /// The header's path in a whole-source descriptor (see
    /// [`ParseDesc::errors`]).
    pub fn header_path(&self) -> &str {
        self.fields().map_or("", |(h, _, _)| h)
    }

    /// The path of record `index` in a whole-source descriptor.
    pub fn record_path(&self, index: usize) -> String {
        match self.fields() {
            Some((_, r, _)) => format!("{r}.[{index}]"),
            None => format!("[{index}]"),
        }
    }

    /// Hands the records in `step` to `each`: the record itself, or those
    /// of a source parsed whole. A header holds none.
    pub fn records_in<E>(&self, step: Ingest<'_, E>, mut each: impl FnMut(Value, ParseDesc)) {
        match step {
            Ingest::Header(..) => {}
            Ingest::Record((value, pd), ..) => each(value, pd),
            Ingest::Whole(value, pd) => {
                for (value, pd) in self.records_of(value, pd) {
                    each(value, pd);
                }
            }
        }
    }

    fn records_of(&self, value: Value, pd: ParseDesc) -> RecordItems {
        let (array, kind) = match (self.fields(), value, pd.kind) {
            (Some((_, r, _)), Value::Struct { fields }, PdKind::Struct { fields: pds }) => (
                fields.into_iter().nth(1).map(|(_, v)| v),
                pds.into_iter().find(|(n, _)| n.as_str() == r).map(|(_, pd)| pd.kind),
            ),
            (_, value, kind) => (Some(value), Some(kind)),
        };
        let Some(Value::Array(values)) = array else {
            return Vec::new();
        };
        let mut pds = match kind {
            Some(PdKind::Array { elts, .. }) => elts.into_iter(),
            _ => Vec::new().into_iter(),
        };
        values.into_iter().map(|v| (v, pds.next().unwrap_or_default())).collect()
    }
}

/// The record type of array type `id` when its elements are records, and
/// whether the array adds nothing to the record stream.
fn records_array(schema: &Schema, id: TypeId) -> Option<(String, bool)> {
    let def = schema.def(id);
    let TypeKind::Array { elem: TyUse::Named { id: eid, args }, sep, term, ended, size } = &def.kind
    else {
        return None;
    };
    let elem = schema.def(*eid);
    let bare = args.is_empty() && def.params.is_empty() && def.where_clause.is_none();
    let plain = sep.is_none() && term.is_none() && ended.is_none() && size.is_none();
    elem.is_record.then(|| (elem.name.clone(), bare && plain && !def.is_record))
}

/// One step of an ingest run, handed to the consumer in source order.
#[derive(Debug)]
pub enum Ingest<'a, E, Q = (Value, ParseDesc)> {
    /// The header, parsed on the calling thread before any record.
    Header(Value, ParseDesc),
    /// A record as the consumer's projection left it, its observer harvest
    /// (with a factory), and the merge cursor after it in global
    /// coordinates.
    Record(Q, Option<E>, &'a Progress),
    /// A source that is not exactly its records, parsed whole.
    Whole(Value, ParseDesc),
}

/// The identity projection: the consumer keeps each record's value and
/// descriptor.
pub fn keep_record(value: Value, pd: ParseDesc) -> (Value, ParseDesc) {
    (value, pd)
}

/// A projected record with what the driver folds of its descriptor, read
/// before the projection ran.
struct Folded<Q> {
    item: Q,
    /// The descriptor's error count.
    nerr: u32,
    /// The descriptor's state, when it records a syntax error.
    syntax: Option<ParseState>,
}

impl<Q> Folded<Q> {
    fn new(value: Value, pd: ParseDesc, project: &impl Fn(Value, ParseDesc) -> Q) -> Folded<Q> {
        let (nerr, syntax) = (pd.nerr, has_syntax_error(&pd).then_some(pd.state));
        Folded { item: project(value, pd), nerr, syntax }
    }
}

/// How an ingest run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ingested {
    /// The final error-budget tally.
    pub budget: ErrorBudget,
    /// The state of the whole-source descriptor.
    pub state: ParseState,
    /// Where a budget stop ended a streamed source: the location of the
    /// root `BudgetExhausted` error of the whole-source descriptor.
    pub stop: Option<Loc>,
}

/// Type-anchoring alias for observer-less driver calls.
pub type NoObserver = fn() -> (WorkerObs, Box<dyn FnMut()>);

impl<'s> PadsParser<'s> {
    /// Parses `data` record-at-a-time with the named record type on up to
    /// `jobs` worker threads, returning the records in source order plus the
    /// final error-budget tally — what draining [`PadsParser::records`]
    /// returns, for any `jobs`. The parser's own observer is not carried
    /// into workers; use [`records_par_observed`](Self::records_par_observed).
    pub fn records_par(
        &self,
        data: &[u8],
        name: &str,
        mask: &Mask,
        jobs: usize,
    ) -> (RecordItems, ErrorBudget) {
        let (items, budget, _) = self.records_par_with(data, name, mask, jobs, None::<&NoObserver>);
        (items, budget)
    }

    /// Like [`records_par`](Self::records_par), folding the records into a
    /// columnar [`RecordBatch`](crate::batch::RecordBatch) whose row `i` is
    /// the record `records_par` returns at index `i`.
    pub fn records_par_batched(
        &self,
        data: &[u8],
        name: &str,
        mask: &Mask,
        jobs: usize,
    ) -> (crate::batch::RecordBatch, ErrorBudget) {
        let mut batch = crate::batch::RecordBatch::new();
        let shape = SourceShape::records(name);
        let start = ResumePoint::default();
        let none = None::<&NoObserver>;
        let end = self.ingest(data, &shape, mask, jobs, start, none, keep_record, |step| {
            if let Ingest::Record((v, pd), ..) = step {
                batch.push(&v, &pd);
            }
        });
        (batch, end.budget)
    }

    /// Like [`records_par`](Self::records_par), but each worker thread (and
    /// the sequential-replay path, if taken) gets its own observation from
    /// `observer`, whose per-record harvests come back in merge order —
    /// record order, which keeps merged counters exact even when the merge
    /// diverts to sequential replay mid-shard.
    pub fn records_par_observed<E, F>(
        &self,
        data: &[u8],
        name: &str,
        mask: &Mask,
        jobs: usize,
        observer: F,
    ) -> (RecordItems, ErrorBudget, Vec<E>)
    where
        E: Send,
        F: Fn() -> (WorkerObs, Box<dyn FnMut() -> E>) + Sync,
    {
        self.records_par_with(data, name, mask, jobs, Some(&observer))
    }

    fn records_par_with<E, F>(
        &self,
        data: &[u8],
        name: &str,
        mask: &Mask,
        jobs: usize,
        observer: Option<&F>,
    ) -> (RecordItems, ErrorBudget, Vec<E>)
    where
        E: Send,
        F: Fn() -> (WorkerObs, Box<dyn FnMut() -> E>) + Sync,
    {
        let (mut items, mut extras) = (Vec::new(), Vec::new());
        let shape = SourceShape::records(name);
        let start = ResumePoint::default();
        let end = self.ingest(data, &shape, mask, jobs, start, observer, keep_record, |step| {
            if let Ingest::Record(item, extra, _) = step {
                items.push(item);
                extras.extend(extra);
            }
        });
        (items, end.budget, extras)
    }

    /// The ingest driver: reads `data` as `shape` says and hands every step
    /// to `consume` exactly once, in source order. Records are parsed on up
    /// to `jobs` workers, from `resume` (a committed checkpoint in global
    /// coordinates; a header is parsed only from the start), each worker
    /// observed through `observer`, and each record passes through
    /// `project` on the thread that parsed it. A source that must be parsed
    /// whole while `jobs > 1` gets a note on stderr saying `--jobs` is
    /// ignored.
    #[allow(clippy::too_many_arguments)]
    pub fn ingest<E, F, Q, P, C>(
        &self,
        data: &[u8],
        shape: &SourceShape,
        mask: &Mask,
        jobs: usize,
        resume: ResumePoint,
        observer: Option<&F>,
        project: P,
        mut consume: C,
    ) -> Ingested
    where
        E: Send,
        F: Fn() -> (WorkerObs, Box<dyn FnMut() -> E>) + Sync,
        Q: Send,
        P: Fn(Value, ParseDesc) -> Q + Sync,
        C: FnMut(Ingest<'_, E, Q>),
    {
        let fields = shape.fields();
        let header = shape.header.as_deref().filter(|_| resume.offset == 0);
        let header_mask = fields.map_or_else(|| mask.clone(), |(h, _, _)| mask.child(h));
        // A source struct stops at a header it cannot parse, so that source
        // is not its records after all.
        let header_fails = |h: &str| {
            let probe = PadsParser::new(self.schema(), self.registry());
            let probe = probe.with_options(self.options());
            has_syntax_error(&probe.parse_named(&mut probe.open(data), h, &[], &header_mask).1)
        };
        let streams = shape.exact && !(fields.is_some() && header.is_some_and(header_fails));
        let (Some(record), true) = (shape.record.as_deref(), streams) else {
            let why = match shape.record {
                Some(_) => "source-level checks need the whole source",
                None => "source is not a plain record array",
            };
            if jobs > 1 {
                eprintln!("pads: {why}; ignoring --jobs");
            }
            let (value, pd, budget) = self.parse_whole(data, mask);
            let state = pd.state;
            consume(Ingest::Whole(value, pd));
            return Ingested { budget, state, stop: None };
        };

        // The source type's own events bracket the stream, as in a
        // whole-source parse.
        let name = |id: TypeId| self.schema().def(id).name.as_str();
        let mut cur = self.open(data);
        let src_start = cur.position();
        let frame = shape.frame.as_ref();
        if let Some(f) = frame {
            cur.observe_enter_id(f.source as u32, name(f.source));
        }
        let (mut start, mut header_nerr) = (resume, 0);
        if let Some(h) = header {
            let (value, pd) = self.parse_named(&mut cur, h, &[], &header_mask);
            header_nerr = pd.nerr;
            consume(Ingest::Header(value, pd));
            let (offset, record) = (cur.offset(), cur.position().record);
            start = ResumePoint { offset, record, budget: cur.budget() };
        }
        let array_start = cur.position();
        if let Some((_, _, array)) = fields {
            cur.observe_enter_id(*array as u32, name(*array));
        }
        let record_mask = match (fields, frame) {
            (Some((_, r, _)), _) => mask.child(r).child(pads_runtime::mask::ELT),
            (None, Some(_)) => mask.child(pads_runtime::mask::ELT),
            (None, None) => mask.clone(),
        };

        // The whole-source descriptor, folded as records arrive: its error
        // count (records before a resume point count through the carried
        // budget), its state (an array takes its first failed record's; a
        // struct stops at a records field with a syntax error), and where
        // the last record started and the stream now stands.
        let carried = resume.budget.errs.saturating_add(resume.budget.skipped_records);
        let mut records_nerr = u32::try_from(carried).unwrap_or(u32::MAX);
        let mut state = ParseState::Ok;
        let mut last_start = if header.is_some() { src_start.offset } else { start.offset };
        let mut at = (start.offset, start.record);
        let budget = self.shard_records(
            data,
            record,
            &record_mask,
            jobs,
            start,
            observer,
            &project,
            |rec: Folded<Q>, extra, progress| {
                records_nerr = records_nerr.saturating_add(rec.nerr);
                if let (ParseState::Ok, Some(syntax)) = (state, rec.syntax) {
                    state = if fields.is_some() { ParseState::Partial } else { syntax };
                }
                last_start = at.0;
                at = (progress.end_offset, progress.record + 1);
                consume(Ingest::Record(rec.item, extra, progress));
            },
        );

        let end = Loc::at(Pos { offset: at.0, record: at.1, byte: at.0 - last_start });
        if let Some(f) = frame {
            let cur = self.open(data).with_start(at.0, at.1);
            let residue = |nerr: u32| ParseDesc { nerr, ..ParseDesc::ok() };
            if let Some((_, _, array)) = fields {
                let array_pd = residue(records_nerr);
                cur.observe_exit_id(*array as u32, name(*array), array_start, &array_pd);
            }
            let source = residue(header_nerr.saturating_add(records_nerr));
            cur.observe_exit_id(f.source as u32, name(f.source), src_start, &source);
            if budget.stopped() {
                cur.observe_error("", ErrorCode::BudgetExhausted, Some(end));
            }
        }
        Ingested { budget, state, stop: budget.stopped().then_some(end) }
    }

    /// The record stream under [`ingest`](Self::ingest): parses `data` from
    /// `resume` on up to `jobs` workers and hands every merged record to
    /// `consume` once, in record order, projected where it was parsed, with
    /// its observer harvest and a [`Progress`] cursor in **global**
    /// coordinates. Returns the final budget.
    #[allow(clippy::too_many_arguments)]
    fn shard_records<E, F, Q, P, C>(
        &self,
        data: &[u8],
        name: &str,
        mask: &Mask,
        jobs: usize,
        resume: ResumePoint,
        observer: Option<&F>,
        project: &P,
        mut consume: C,
    ) -> ErrorBudget
    where
        E: Send,
        F: Fn() -> (WorkerObs, Box<dyn FnMut() -> E>) + Sync,
        Q: Send,
        P: Fn(Value, ParseDesc) -> Q + Sync,
        C: FnMut(Folded<Q>, Option<E>, &Progress),
    {
        let schema = self.schema();
        let registry = self.registry();
        let options = self.options();
        if resume.budget.stopped() {
            return resume.budget;
        }
        let base = resume.offset.min(data.len());
        let tail = &data[base..];
        // Unknown names poison the iterator with a single error item, which
        // has no per-shard meaning: let one sequential "shard" handle it.
        let jobs = if schema.type_id(name).is_some() { jobs.max(1) } else { 1 };
        let plan = par::plan_chunks(tail, options.discipline, options.charset, jobs);

        // Workers cannot know how many errors earlier shards produced, so
        // they parse with source-level limits stripped; the merge (and the
        // replay path) applies the real policy. Per-record limits are
        // positional and stay.
        let stripped = ParseOptions {
            policy: RecoveryPolicy {
                max_errs: None,
                max_panic_skip: None,
                ..options.policy
            },
            ..options
        };

        let build = |opts: ParseOptions| -> (PadsParser<'s>, Option<Box<dyn FnMut() -> E>>) {
            let mut parser = PadsParser::new(schema, registry).with_options(opts);
            let Some(factory) = observer else {
                return (parser, None);
            };
            let (att, harvest) = factory();
            if let Some(core) = att.metrics {
                parser = parser.with_metrics(core);
            }
            (parser, Some(harvest))
        };

        // Each worker builds one parser for all its chunks. Harvest
        // closures are not `Send`, so a worker drains its own observer
        // after every record and ships the delta with it.
        let worker = |chunks: &Chunks<'_, Folded<Q>, E>| {
            let (parser, mut harvest) = build(stripped);
            while let Some((shard, mut tx)) = chunks.next() {
                let mut it = parser.records(&tail[shard.start..shard.end], name, mask);
                let mut prev = it.budget();
                while let Some((value, mut pd)) = it.next() {
                    pd.rebase(base + shard.start, resume.record + shard.first_record);
                    let after = it.budget();
                    let msg = RecordMsg {
                        nerr: after.errs.saturating_sub(prev.errs) as u32,
                        panic_skipped: after.panic_skipped.saturating_sub(prev.panic_skipped),
                        end_offset: shard.start + it.offset(),
                        extra: harvest.as_mut().map(|h| h()),
                        item: Folded::new(value, pd, project),
                    };
                    prev = after;
                    if !tx.send(msg) {
                        return;
                    }
                }
            }
        };

        // Sequential replay (plan-local resume point → global coordinates):
        // `records_resumed` positions the cursor globally, so descriptors
        // need no rebase and the budget carries straight through. Without
        // a factory it runs on this parser, under its own observation.
        let replay = |from: par::ResumePoint,
                      emit: &mut dyn FnMut(Folded<Q>, usize, ErrorBudget, Option<E>)| {
            let (fresh, mut harvest) = match observer {
                Some(_) => {
                    let (parser, harvest) = build(options);
                    (Some(parser), harvest)
                }
                None => (None, None),
            };
            let parser = fresh.as_ref().unwrap_or(self);
            let mut it = parser.records_resumed(
                data,
                name,
                mask,
                ResumePoint {
                    offset: base + from.offset,
                    record: resume.record + from.record,
                    budget: from.budget,
                },
            );
            while let Some((value, pd)) = it.next() {
                let budget = it.budget();
                let end = it.offset() - base;
                let extra = harvest.as_mut().map(|h| h());
                emit(Folded::new(value, pd, project), end, budget, extra);
            }
            it.budget()
        };

        par::run_sharded(
            &plan,
            &options.policy,
            resume.budget,
            jobs,
            worker,
            replay,
            |rec, extra, p: &Progress| {
                let global = Progress {
                    record: resume.record + p.record,
                    end_offset: base + p.end_offset,
                    budget: p.budget,
                };
                consume(rec, extra, &global);
            },
        )
    }
}
