//! Parallel record-sharded parsing.
//!
//! The paper's deployments (§1) parse multi-gigabyte daily feeds — Sirius
//! call detail, web logs — whose record disciplines make the data
//! *embarrassingly splittable*: a newline-delimited source can be cut at any
//! newline, a fixed-width source at any multiple of the width, and both
//! halves parsed independently, because every record-bounded read is
//! position-independent. This module exploits that: [`plan_chunks`] cuts a
//! source into record-aligned chunks (the shards of a [`ShardPlan`], found
//! by the [`scan`](crate::scan) kernels), and [`run_sharded`] parses them on
//! a pool of worker threads feeding an in-order merge that hands each
//! record to the consumer the moment its turn comes — which is what lets a
//! checkpoint journal commit progressively during a parallel run.
//!
//! # The pool
//!
//! - **Chunks.** A plan holds about one chunk per [`CHUNK_BYTES`] of
//!   input, and at least four per job when the source has that many
//!   records, so no worker sits idle behind one long shard.
//! - **Threads.** `min(jobs, chunks)` workers. Each builds its parser once
//!   (names, regex cache, VM program) and then claims chunks in source
//!   order through [`Chunks::next`].
//! - **Window.** A worker claims a chunk only while fewer than two chunks
//!   per worker are ahead of the merge. It parses the claimed chunk whole
//!   and hands it over whole, so it never stalls mid-chunk, and the
//!   records in flight stay O(jobs × chunk).
//! - **Worker-side projection.** A record's [`RecordMsg::item`] is built
//!   on the worker. A consumer that keeps only what it reads (say, the
//!   descriptors of records with errors) has each record tree freed on
//!   the thread that allocated it, not on the merge thread.
//!
//! # Determinism contract
//!
//! The merged output — values, parse descriptors, and the
//! [`ErrorBudget`] tally — is byte-identical to a sequential parse under
//! every [`OnExhausted`](crate::recovery::OnExhausted) mode. Two mechanisms
//! guarantee it:
//!
//! 1. **Workers parse with source-level limits stripped.** A chunk cannot
//!    know how many errors earlier chunks produced, so workers run with
//!    `max_errs`/`max_panic_skip` removed (the per-record
//!    `max_record_errs` cap is positional and stays). The merge folds each
//!    record's error delta into the cumulative budget in record order; as
//!    long as that fold never crosses a limit, the sequential engine would
//!    not have degraded either, and the merged records are exactly its
//!    output.
//! 2. **Sequential replay from the first divergence.** The first record
//!    whose fold crosses a source limit — or the first chunk that holds
//!    fewer records than planned (a panicked worker surfaces this way) —
//!    is the first point where sequential behaviour could differ. The
//!    merge stops *before consuming that record* and re-parses from its
//!    byte offset sequentially under the full policy with the
//!    budget-as-of-the-previous-record carried in. Re-parsing the tripping
//!    record itself under the real policy reproduces the budget-exhaustion
//!    transition (and its observer event) at exactly the record where the
//!    sequential engine fires it; `Stop` then ends after that record,
//!    `SkipRecord` and `BestEffort` continue under their degraded modes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

use crate::encoding::Charset;
use crate::io::RecordDiscipline;
use crate::recovery::{ErrorBudget, RecoveryPolicy};
use crate::scan;

/// One contiguous byte range of the source, aligned to record boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Position of this shard in the plan (0-based).
    pub index: usize,
    /// First byte of the shard (a record start).
    pub start: usize,
    /// One past the last byte (a record end, or the end of the source).
    pub end: usize,
    /// Global index of the shard's first record.
    pub first_record: usize,
    /// Number of records the shard holds.
    pub records: usize,
}

/// A partition of a source into record-aligned shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// The shards, contiguous and in source order. Never empty.
    pub shards: Vec<Shard>,
}

impl ShardPlan {
    /// A single shard covering `0..len` with `records` records.
    fn single(len: usize, records: usize) -> ShardPlan {
        ShardPlan {
            shards: vec![Shard { index: 0, start: 0, end: len, first_record: 0, records }],
        }
    }

    /// Builds a plan from record-aligned byte boundaries. `bounds` must be
    /// strictly increasing interior cut points; `records_in` counts the
    /// records of a byte range.
    fn from_bounds(
        len: usize,
        bounds: Vec<usize>,
        records_in: impl Fn(usize, usize) -> usize,
    ) -> ShardPlan {
        let mut shards = Vec::with_capacity(bounds.len() + 1);
        let mut start = 0;
        let mut first_record = 0;
        for end in bounds.into_iter().chain(std::iter::once(len)) {
            let records = records_in(start, end);
            shards.push(Shard { index: shards.len(), start, end, first_record, records });
            first_record += records;
            start = end;
        }
        ShardPlan { shards }
    }

    /// Total records across all shards.
    pub fn total_records(&self) -> usize {
        self.shards.iter().map(|s| s.records).sum()
    }
}

/// Splits `data` into at most `shards` contiguous shards at record
/// boundaries of `disc`. With `shards <= 1`, an empty source, or the
/// [`RecordDiscipline::None`] discipline (the whole source is one record),
/// the plan is a single shard.
///
/// Shards are byte-balanced: each interior boundary is the first record
/// boundary at or after an even byte split. Sources with fewer boundaries
/// than shards simply produce fewer shards.
pub fn plan_shards(
    data: &[u8],
    disc: RecordDiscipline,
    charset: Charset,
    shards: usize,
) -> ShardPlan {
    let len = data.len();
    match disc {
        RecordDiscipline::None => ShardPlan::single(len, usize::from(len > 0)),
        RecordDiscipline::Newline => {
            let nl = charset.encode(b'\n');
            let records_in = |s: usize, e: usize| {
                let mut n = scan::count_byte(&data[s..e], nl);
                // A final record without a trailing newline still counts.
                if e == len && e > s && data[e - 1] != nl {
                    n += 1;
                }
                n
            };
            if shards <= 1 || len == 0 {
                return ShardPlan::single(len, records_in(0, len));
            }
            let mut bounds = Vec::with_capacity(shards - 1);
            let mut prev = 0usize;
            for i in 1..shards {
                let target = len * i / shards;
                let from = target.max(prev);
                if from >= len {
                    break;
                }
                if let Some(off) = scan::find_byte(&data[from..], nl) {
                    let b = from + off + 1;
                    if b > prev && b < len {
                        bounds.push(b);
                        prev = b;
                    }
                }
            }
            ShardPlan::from_bounds(len, bounds, records_in)
        }
        RecordDiscipline::FixedWidth(w) => {
            if w == 0 {
                return ShardPlan::single(len, 0);
            }
            let total = len.div_ceil(w);
            let records_in = |s: usize, e: usize| (e - s).div_ceil(w);
            if shards <= 1 || len == 0 {
                return ShardPlan::single(len, total);
            }
            let mut bounds = Vec::with_capacity(shards - 1);
            let mut prev = 0usize;
            for i in 1..shards {
                let b = (total * i / shards) * w;
                if b > prev && b < len {
                    bounds.push(b);
                    prev = b;
                }
            }
            ShardPlan::from_bounds(len, bounds, records_in)
        }
        RecordDiscipline::LengthPrefixed { header_bytes, endian } => {
            // Record starts are only discoverable by walking the headers,
            // mirroring `Cursor::begin_record`'s framing (including its
            // malformed-header recovery: the rest of the source becomes
            // one record).
            let mut starts = Vec::new();
            let mut pos = 0usize;
            while pos < len {
                starts.push(pos);
                if header_bytes == 0 || header_bytes > len - pos {
                    break;
                }
                let hdr = &data[pos..pos + header_bytes];
                let mut rec_len: usize = 0;
                let fold = |l: usize, b: u8| {
                    l.checked_mul(256).map_or(usize::MAX, |l| l | b as usize)
                };
                match endian {
                    crate::encoding::Endian::Big => {
                        for &b in hdr {
                            rec_len = fold(rec_len, b);
                        }
                    }
                    crate::encoding::Endian::Little => {
                        for &b in hdr.iter().rev() {
                            rec_len = fold(rec_len, b);
                        }
                    }
                }
                let body = pos + header_bytes;
                if rec_len > len - body {
                    break;
                }
                pos = body + rec_len;
            }
            let total = starts.len();
            // `starts` is strictly increasing, so both the per-shard counts
            // and the boundary searches are binary searches.
            let first_at = |p: usize| starts.partition_point(|&s| s < p);
            let records_in = |s: usize, e: usize| first_at(e) - first_at(s);
            if shards <= 1 || total <= 1 {
                return ShardPlan::single(len, total);
            }
            let mut bounds = Vec::with_capacity(shards - 1);
            let mut prev = 0usize;
            for i in 1..shards {
                // First record start at or after the even byte split.
                if let Some(&b) = starts.get(first_at(len * i / shards)) {
                    if b > prev && b < len {
                        bounds.push(b);
                        prev = b;
                    }
                }
            }
            ShardPlan::from_bounds(len, bounds, records_in)
        }
    }
}

/// Input bytes the pool aims to put in one chunk: large enough that a
/// claim and a handover cost nothing beside parsing the chunk, small
/// enough that a window of chunks per worker holds little memory.
pub const CHUNK_BYTES: usize = 128 * 1024;

/// Chunks per job a plan is cut into at least, when the source has the
/// records for it, so the pool keeps balancing load to the end.
const CHUNKS_PER_JOB: usize = 4;

/// Chunks per worker the pool may hold ahead of the merge: one being
/// merged or queued, one being parsed.
const WINDOW_PER_WORKER: usize = 2;

/// Cuts `data` into the record-aligned chunks [`run_sharded`] hands its
/// workers: one shard with `jobs <= 1` (the sequential engine needs no
/// cut), else about one per [`CHUNK_BYTES`] and at least four per job.
pub fn plan_chunks(
    data: &[u8],
    disc: RecordDiscipline,
    charset: Charset,
    jobs: usize,
) -> ShardPlan {
    let chunks = match jobs {
        0 | 1 => 1,
        _ => (data.len() / CHUNK_BYTES).max(jobs.saturating_mul(CHUNKS_PER_JOB)),
    };
    plan_shards(data, disc, charset, chunks)
}

/// One parsed record handed from a worker to the in-order merge.
#[derive(Debug)]
pub struct RecordMsg<T, E> {
    /// The record as the consumer wants it, built on the worker.
    pub item: T,
    /// Errors this record added to the budget (the `note_record` delta).
    pub nerr: u32,
    /// Panic-skip bytes this record added to the budget.
    pub panic_skipped: u64,
    /// One past the record's last byte, in the plan's coordinates.
    pub end_offset: usize,
    /// Engine-specific per-record side data (e.g. a metrics harvest),
    /// merged in record order.
    pub extra: Option<E>,
}

/// A chunk's parsed records, handed over whole: (chunk index, records).
type Handover<T, E> = (usize, Vec<RecordMsg<T, E>>);

/// What the workers and the merge share: which chunk is claimed next, how
/// many chunks the merge has finished, and whether it stopped taking
/// records.
#[derive(Debug)]
struct Pool {
    claims: Mutex<Claims>,
    turn: Condvar,
    /// Set once the merge stops taking records. It publishes no other
    /// data, so `Relaxed` suffices: [`ShardSender::send`] reads it
    /// without the lock only to quit early, and [`Pool::stop`] sets it
    /// under the lock that [`Pool::claim`] reads it under.
    stopped: AtomicBool,
    chunks: usize,
    window: usize,
}

#[derive(Debug)]
struct Claims {
    next: usize,
    merged: usize,
}

impl Pool {
    /// The claim state. Each update is one field assignment, so the state
    /// is valid even if a thread panicked while holding the lock.
    fn lock(&self) -> MutexGuard<'_, Claims> {
        self.claims.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The next chunk in source order, once it is inside the window;
    /// `None` when every chunk is claimed or the merge stopped.
    fn claim(&self) -> Option<usize> {
        let mut claims = self.lock();
        loop {
            if self.stopped.load(Ordering::Relaxed) || claims.next >= self.chunks {
                return None;
            }
            if claims.next < claims.merged + self.window {
                claims.next += 1;
                return Some(claims.next - 1);
            }
            claims = self.turn.wait(claims).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn merged(&self, chunks: usize) {
        self.lock().merged = chunks;
        self.turn.notify_all();
    }

    fn stop(&self) {
        let claims = self.lock();
        self.stopped.store(true, Ordering::Relaxed);
        drop(claims);
        self.turn.notify_all();
    }
}

/// Stops the pool however the merge ends — a trip, a short chunk, or a
/// panicking consumer — so no worker waits for a window that never opens.
struct StopOnDrop<'p>(&'p Pool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.stop();
    }
}

/// A worker thread's handle on the pool: [`next`](Chunks::next) claims
/// the plan's chunks in source order.
#[derive(Debug)]
pub struct Chunks<'p, T, E> {
    pool: &'p Pool,
    plan: &'p ShardPlan,
    tx: mpsc::Sender<Handover<T, E>>,
}

impl<'p, T, E> Chunks<'p, T, E> {
    /// Claims the next chunk, blocking while the window is full. Returns
    /// the chunk and the sender its records go through, or `None` once
    /// every chunk is claimed or the merge stopped — the worker ends.
    pub fn next(&self) -> Option<(&'p Shard, ShardSender<'_, T, E>)> {
        let index = self.pool.claim()?;
        let shard = self.plan.shards.get(index)?;
        let records = Vec::with_capacity(shard.records);
        Some((shard, ShardSender { index, records, tx: &self.tx, stopped: &self.pool.stopped }))
    }
}

/// Collects one chunk's records for the merge. Dropping the sender —
/// including while a panicking worker unwinds — hands the chunk over, so
/// every record a worker finished reaches the merge; a short chunk makes
/// the merge replay from its first missing record.
#[derive(Debug)]
pub struct ShardSender<'c, T, E> {
    index: usize,
    records: Vec<RecordMsg<T, E>>,
    tx: &'c mpsc::Sender<Handover<T, E>>,
    stopped: &'c AtomicBool,
}

impl<T, E> ShardSender<'_, T, E> {
    /// Adds one record to the chunk. Returns `false` once the merge has
    /// stopped taking records (it diverted to sequential replay) — the
    /// worker should stop parsing.
    pub fn send(&mut self, msg: RecordMsg<T, E>) -> bool {
        self.records.push(msg);
        !self.stopped.load(Ordering::Relaxed)
    }
}

impl<T, E> Drop for ShardSender<'_, T, E> {
    fn drop(&mut self) {
        let records = std::mem::take(&mut self.records);
        // A merge that already ended has no use for the chunk.
        let _ = self.tx.send((self.index, records));
    }
}

/// Where the in-order merge is, reported to the consumer with every record
/// so it can checkpoint progressively.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// Index of the record just consumed, in the plan's coordinates.
    pub record: usize,
    /// One past the record's last byte, in the plan's coordinates.
    pub end_offset: usize,
    /// The cumulative budget *after* folding this record.
    pub budget: ErrorBudget,
}

/// A committed position to resume from: everything before byte `offset` /
/// record `record` has been consumed, and `budget` is the tally as of that
/// boundary. Offsets and record indices are in the coordinates of whatever
/// the shard plan covers (callers resuming mid-source plan over the tail
/// slice and rebase).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResumePoint {
    /// First unconsumed byte.
    pub offset: usize,
    /// Index of the first unconsumed record.
    pub record: usize,
    /// The budget tally at the boundary.
    pub budget: ErrorBudget,
}

/// Parses a planned source on a pool of `min(jobs, chunks)` worker
/// threads feeding an in-order merge that hands each record to `consume`
/// the moment its turn comes.
///
/// `worker` runs once per thread: it builds its parser, then claims
/// chunks through [`Chunks::next`] and sends a [`RecordMsg`] per record
/// through the chunk's [`ShardSender`] (it must strip source-level limits
/// from its policy — see the module docs — and stop when `send` returns
/// `false`). `replay` parses sequentially from a [`ResumePoint`] **to the
/// end of the plan** under the full `policy`, calling its emit callback
/// with `(item, end_offset, budget_after_record, extra)` per record and
/// returning the final budget. `consume` receives every merged record, in
/// record order, exactly once.
///
/// `carried` is the budget tally at the plan's start (non-default when
/// resuming from a checkpoint). With a single chunk — or a carried budget
/// already exhausted or stopped — the whole plan goes through `replay` on
/// the calling thread, which streams with O(1) retention by construction.
///
/// Returns the final cumulative budget.
pub fn run_sharded<T, E, W, R, C>(
    plan: &ShardPlan,
    policy: &RecoveryPolicy,
    carried: ErrorBudget,
    jobs: usize,
    worker: W,
    replay: R,
    mut consume: C,
) -> ErrorBudget
where
    T: Send,
    E: Send,
    W: Fn(&Chunks<'_, T, E>) + Sync,
    R: FnOnce(ResumePoint, &mut dyn FnMut(T, usize, ErrorBudget, Option<E>)) -> ErrorBudget,
    C: FnMut(T, Option<E>, &Progress),
{
    let shards = &plan.shards;
    if carried.stopped() {
        // A stopped budget ends the parse before any record; nothing to do.
        return carried;
    }
    let mut cum = carried;
    let mut next_record = 0usize;
    let mut divert: Option<ResumePoint> = None;
    if shards.len() <= 1 || carried.exhausted() {
        // One chunk gains nothing from a worker thread, and an exhausted
        // carried budget degrades from the very first record: both stream
        // through the sequential engine directly.
        divert = Some(ResumePoint { offset: 0, record: 0, budget: carried });
    } else {
        let threads = jobs.max(1).min(shards.len());
        let pool = Pool {
            claims: Mutex::new(Claims { next: 0, merged: 0 }),
            turn: Condvar::new(),
            stopped: AtomicBool::new(false),
            chunks: shards.len(),
            window: WINDOW_PER_WORKER * threads,
        };
        let (tx, rx) = mpsc::channel::<Handover<T, E>>();
        thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let chunks = Chunks { pool: &pool, plan, tx: tx.clone() };
                    let worker = &worker;
                    scope.spawn(move || worker(&chunks))
                })
                .collect();
            // The merge holds no sender, so `recv` fails once every worker
            // has ended: nothing more can arrive.
            drop(tx);
            {
                let _stop = StopOnDrop(&pool);
                // Chunks that arrived ahead of their turn.
                let mut early: Vec<Option<Vec<RecordMsg<T, E>>>> =
                    std::iter::repeat_with(|| None).take(shards.len()).collect();
                let mut prev_end = 0usize;
                'merge: for (i, shard) in shards.iter().enumerate() {
                    let chunk = loop {
                        if let Some(chunk) = early.get_mut(i).and_then(Option::take) {
                            break Some(chunk);
                        }
                        match rx.recv() {
                            Ok((k, chunk)) => {
                                if let Some(slot) = early.get_mut(k) {
                                    *slot = Some(chunk);
                                }
                            }
                            Err(_) => break None,
                        }
                    };
                    let mut records = chunk.unwrap_or_default().into_iter();
                    for _ in 0..shard.records {
                        let Some(msg) = records.next() else {
                            // The chunk came back short of its planned
                            // record count (a worker panicked, or framing
                            // disagrees): sequential replay takes over
                            // from the last consumed boundary.
                            divert = Some(ResumePoint {
                                offset: prev_end,
                                record: next_record,
                                budget: cum,
                            });
                            break 'merge;
                        };
                        let before = cum;
                        cum.note_record(policy, msg.nerr, msg.panic_skipped);
                        if cum.exhausted() && !before.exhausted() {
                            // This record trips a source limit. Do not
                            // consume it: replay re-parses it under the
                            // full policy so the degradation (and its
                            // observer transition) lands exactly where the
                            // sequential engine puts it.
                            cum = before;
                            divert = Some(ResumePoint {
                                offset: prev_end,
                                record: next_record,
                                budget: before,
                            });
                            break 'merge;
                        }
                        consume(
                            msg.item,
                            msg.extra,
                            &Progress {
                                record: next_record,
                                end_offset: msg.end_offset,
                                budget: cum,
                            },
                        );
                        next_record += 1;
                        prev_end = msg.end_offset;
                    }
                    pool.merged(i + 1);
                }
            }
            // The pool is stopped: workers finish their chunk and end.
            // Join them to absorb worker panics — a panicked worker's chunk
            // came back short and already diverted to replay above.
            drop(rx);
            for h in handles {
                let _ = h.join();
            }
        });
    }
    if let Some(from) = divert {
        let mut emit = |item: T, end_offset: usize, budget: ErrorBudget, extra: Option<E>| {
            consume(item, extra, &Progress { record: next_record, end_offset, budget });
            next_record += 1;
        };
        cum = replay(from, &mut emit);
    }
    cum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::Endian;
    use crate::recovery::OnExhausted;
    use std::sync::atomic::AtomicUsize;

    fn newline_plan(data: &[u8], shards: usize) -> ShardPlan {
        plan_shards(data, RecordDiscipline::Newline, Charset::Ascii, shards)
    }

    fn assert_plan_invariants(data: &[u8], plan: &ShardPlan, expected_records: usize) {
        assert!(!plan.shards.is_empty());
        assert_eq!(plan.shards[0].start, 0);
        assert_eq!(plan.shards.last().map(|s| s.end), Some(data.len()));
        let mut first_record = 0;
        let mut prev_end = 0;
        for (i, s) in plan.shards.iter().enumerate() {
            assert_eq!(s.index, i);
            assert_eq!(s.start, prev_end, "shards must be contiguous");
            assert_eq!(s.first_record, first_record);
            prev_end = s.end;
            first_record += s.records;
        }
        assert_eq!(plan.total_records(), expected_records);
    }

    #[test]
    fn newline_plans_split_on_record_boundaries() {
        let data = b"aa\nbb\ncc\ndd\nee\nff\n";
        for jobs in 1..=6 {
            let plan = newline_plan(data, jobs);
            assert_plan_invariants(data, &plan, 6);
            assert!(plan.shards.len() <= jobs.max(1));
            for s in &plan.shards {
                if s.end < data.len() {
                    assert_eq!(data[s.end - 1], b'\n', "boundary must follow a newline");
                }
            }
        }
    }

    #[test]
    fn newline_plan_counts_trailing_partial_record() {
        let plan = newline_plan(b"aa\nbb\ncc", 2);
        assert_plan_invariants(b"aa\nbb\ncc", &plan, 3);
    }

    #[test]
    fn degenerate_sources_yield_single_shards() {
        assert_eq!(newline_plan(b"", 4).shards.len(), 1);
        assert_eq!(newline_plan(b"no newline", 4).shards.len(), 1);
        let plan = plan_shards(b"abc", RecordDiscipline::None, Charset::Ascii, 4);
        assert_eq!(plan.shards.len(), 1);
        assert_eq!(plan.total_records(), 1);
        let plan = plan_shards(b"abc", RecordDiscipline::FixedWidth(0), Charset::Ascii, 4);
        assert_eq!(plan.shards.len(), 1);
    }

    #[test]
    fn fixed_width_plans_split_at_width_multiples() {
        let data = [7u8; 100];
        let plan = plan_shards(&data, RecordDiscipline::FixedWidth(8), Charset::Ascii, 4);
        assert_plan_invariants(&data, &plan, 13);
        for s in &plan.shards {
            if s.end < data.len() {
                assert_eq!(s.end % 8, 0);
            }
        }
    }

    #[test]
    fn length_prefixed_plans_walk_headers() {
        // Records: [len=3]xyz [len=1]q [len=2]zz, 1-byte headers.
        let data = [3u8, b'x', b'y', b'z', 1, b'q', 2, b'z', b'z'];
        let disc = RecordDiscipline::LengthPrefixed { header_bytes: 1, endian: Endian::Big };
        let plan = plan_shards(&data, disc, Charset::Ascii, 3);
        assert_plan_invariants(&data, &plan, 3);
        for s in &plan.shards {
            if s.end < data.len() {
                assert!([0, 4, 6, 9].contains(&s.end), "boundary {} not a record start", s.end);
            }
        }
    }

    #[test]
    fn length_prefixed_overrun_groups_tail_into_one_record() {
        // Second header claims 200 bytes: the rest of the source is one
        // malformed record, exactly as `begin_record` frames it.
        let data = [2u8, b'a', b'b', 200, b'x', b'y'];
        let disc = RecordDiscipline::LengthPrefixed { header_bytes: 1, endian: Endian::Big };
        let plan = plan_shards(&data, disc, Charset::Ascii, 4);
        assert_plan_invariants(&data, &plan, 2);
    }

    #[test]
    fn length_prefixed_many_chunk_plans_cut_at_record_starts() {
        // 3000 records of 0..=9 body bytes behind 2-byte little-endian
        // headers, cut into hundreds of chunks.
        let mut data = Vec::new();
        let mut starts = Vec::new();
        for i in 0..3000u16 {
            starts.push(data.len());
            let body = usize::from(i % 10);
            data.extend_from_slice(&(body as u16).to_le_bytes());
            data.resize(data.len() + body, b'r');
        }
        let disc = RecordDiscipline::LengthPrefixed { header_bytes: 2, endian: Endian::Little };
        for chunks in [2, 64, 700, 5000] {
            let plan = plan_shards(&data, disc, Charset::Ascii, chunks);
            assert_plan_invariants(&data, &plan, starts.len());
            assert!(plan.shards.len() > chunks.min(3000) / 2, "{chunks}: {}", plan.shards.len());
            for s in &plan.shards {
                assert!(starts.binary_search(&s.start).is_ok(), "{} not a record start", s.start);
                assert!(s.records > 0, "chunk {} is empty", s.index);
            }
        }
    }

    #[test]
    fn chunk_plans_give_every_job_several_chunks() {
        let chunks = |data: &[u8], jobs| {
            plan_chunks(data, RecordDiscipline::Newline, Charset::Ascii, jobs)
        };
        let data = numbered_lines(1000, &[]);
        assert_eq!(chunks(&data, 1).shards.len(), 1);
        for jobs in [2, 4] {
            let plan = chunks(&data, jobs);
            assert_plan_invariants(&data, &plan, 1000);
            assert_eq!(plan.shards.len(), CHUNKS_PER_JOB * jobs);
        }
        // A large source is cut by size.
        let big = numbered_lines(60_000, &[]);
        let plan = chunks(&big, 2);
        assert_plan_invariants(&big, &plan, 60_000);
        assert!(plan.shards.len() >= big.len() / CHUNK_BYTES);
        assert!(plan.shards.iter().all(|s| s.end - s.start <= CHUNK_BYTES + 16));
    }

    // A toy "parser" for run_sharded tests: each record is one newline-line;
    // lines containing 'X' count one error each. Workers send each line
    // with its error delta and end offset; `extra` marks worker-parsed
    // records so tests can tell merged worker output from replayed output.

    // The sequential "engine": parses from the resume point to the source
    // end with the full policy, stopping/degrading as the policy dictates.
    fn toy_replay(
        data: &[u8],
        policy: RecoveryPolicy,
    ) -> impl FnOnce(ResumePoint, &mut dyn FnMut(String, usize, ErrorBudget, Option<u64>)) -> ErrorBudget + '_
    {
        move |from, emit| {
            let mut budget = from.budget;
            for (line, end) in split_records(data, from.offset, data.len()) {
                if budget.stopped() {
                    break;
                }
                if budget.exhausted() && policy.on_exhausted == OnExhausted::SkipRecord {
                    budget.note_skipped_record();
                    emit("<skipped>".to_owned(), end, budget, None);
                    continue;
                }
                let nerr = u32::from(line.contains(&b'X'));
                budget.note_record(&policy, nerr, 0);
                emit(String::from_utf8_lossy(line).into_owned(), end, budget, None);
            }
            budget
        }
    }

    // Newline-framed records of `data[start..end]` with their absolute end
    // offsets (one past the terminator, or the slice end for a partial
    // final record).
    fn split_records(data: &[u8], start: usize, end: usize) -> Vec<(&[u8], usize)> {
        let mut out = Vec::new();
        let mut rec_start = start;
        for i in start..end {
            if data[i] == b'\n' {
                out.push((&data[rec_start..i], i + 1));
                rec_start = i + 1;
            }
        }
        if rec_start < end {
            out.push((&data[rec_start..end], end));
        }
        out
    }

    #[derive(Debug)]
    struct ToyRun {
        items: Vec<String>,
        budget: ErrorBudget,
        /// Records consumed from workers (vs. replayed).
        streamed: u64,
        progress: Vec<Progress>,
        /// Chunks claimed while the merge was a full window behind.
        overruns: usize,
    }

    /// Runs the toy engine over `plan` on `jobs` workers. A worker panics
    /// on global record `panic_at`, and counts every claim made while
    /// the merge had not yet finished the chunk a full window back.
    fn run_toy_plan(
        data: &[u8],
        plan: &ShardPlan,
        policy: RecoveryPolicy,
        jobs: usize,
        carried: ErrorBudget,
        panic_at: Option<usize>,
    ) -> ToyRun {
        let consumed = AtomicUsize::new(0);
        let overruns = AtomicUsize::new(0);
        let window = WINDOW_PER_WORKER * jobs.max(1).min(plan.shards.len());
        let worker = |chunks: &Chunks<'_, String, u64>| {
            while let Some((shard, mut tx)) = chunks.next() {
                if let Some(back) = shard.index.checked_sub(window) {
                    let merged = consumed.load(Ordering::SeqCst);
                    if merged < plan.shards[back].first_record + plan.shards[back].records {
                        overruns.fetch_add(1, Ordering::SeqCst);
                    }
                }
                let records = split_records(data, shard.start, shard.end);
                for (k, (line, end)) in records.into_iter().enumerate() {
                    assert!(Some(shard.first_record + k) != panic_at, "worker panic safety net");
                    let msg = RecordMsg {
                        item: String::from_utf8_lossy(line).into_owned(),
                        nerr: u32::from(line.contains(&b'X')),
                        panic_skipped: 0,
                        end_offset: end,
                        extra: Some(1),
                    };
                    if !tx.send(msg) {
                        return;
                    }
                }
            }
        };
        let mut items = Vec::new();
        let mut streamed = 0;
        let mut progress = Vec::new();
        let budget = run_sharded(
            plan,
            &policy,
            carried,
            jobs,
            worker,
            toy_replay(data, policy),
            |item, extra, p: &Progress| {
                items.push(item);
                streamed += extra.unwrap_or(0);
                progress.push(*p);
                consumed.fetch_add(1, Ordering::SeqCst);
            },
        );
        ToyRun { items, budget, streamed, progress, overruns: overruns.into_inner() }
    }

    fn run_toy_resumed(
        data: &[u8],
        policy: RecoveryPolicy,
        jobs: usize,
        carried: ErrorBudget,
    ) -> ToyRun {
        let plan = plan_chunks(data, RecordDiscipline::Newline, Charset::Ascii, jobs);
        let run = run_toy_plan(data, &plan, policy, jobs, carried, None);
        assert_eq!(run.overruns, 0, "jobs={jobs}: the window was exceeded");
        run
    }

    fn run_toy(data: &[u8], policy: RecoveryPolicy, jobs: usize) -> ToyRun {
        run_toy_resumed(data, policy, jobs, ErrorBudget::new())
    }

    #[test]
    fn sharded_matches_sequential_without_limits() {
        let data = b"one\ntwo\nthrXe\nfour\nfive\nsiX\nseven\neight\n";
        let seq = run_toy(data, RecoveryPolicy::unlimited(), 1);
        for jobs in 2..=5 {
            let par = run_toy(data, RecoveryPolicy::unlimited(), jobs);
            assert_eq!(par.items, seq.items, "jobs={jobs}");
            assert_eq!(par.budget, seq.budget, "jobs={jobs}");
            assert_eq!(par.streamed, par.items.len() as u64, "jobs={jobs}: all streamed");
        }
    }

    #[test]
    fn progress_is_monotonic_and_budget_folds_in_order() {
        let data = b"a\nXb\nc\nXd\ne\n";
        let par = run_toy(data, RecoveryPolicy::unlimited(), 3);
        let mut prev_record = None;
        let mut prev_end = 0;
        let mut prev_errs = 0;
        for p in &par.progress {
            assert_eq!(p.record, prev_record.map_or(0, |r: usize| r + 1), "dense record index");
            assert!(p.end_offset > prev_end, "offsets advance");
            assert!(p.budget.errs >= prev_errs, "budget is monotone");
            prev_record = Some(p.record);
            prev_end = p.end_offset;
            prev_errs = p.budget.errs;
        }
        assert_eq!(prev_end, data.len());
        assert_eq!(prev_errs, 2);
    }

    #[test]
    fn stop_mode_replays_and_discards_past_stop_point() {
        // max_errs = 1: the second 'X' line trips Stop; everything after it
        // must be absent, exactly as sequentially. The tripping record
        // itself is emitted (by replay, under the full policy).
        let policy = RecoveryPolicy::unlimited().with_max_errs(1);
        let data = b"a\nX1\nb\nX2\nc\nd\ne\nf\ng\nh\n";
        let seq = run_toy(data, policy, 1);
        assert!(seq.budget.stopped());
        assert_eq!(seq.items.last().map(String::as_str), Some("X2"));
        for jobs in 2..=4 {
            let par = run_toy(data, policy, jobs);
            assert_eq!(par.items, seq.items, "jobs={jobs}");
            assert_eq!(par.budget, seq.budget, "jobs={jobs}");
        }
    }

    #[test]
    fn skip_record_mode_replays_degraded_tail() {
        let policy = RecoveryPolicy::unlimited()
            .with_max_errs(0)
            .with_on_exhausted(OnExhausted::SkipRecord);
        let data = b"a\nb\nXbad\nc\nd\ne\nf\ng\n";
        let seq = run_toy(data, policy, 1);
        assert!(seq.budget.exhausted() && !seq.budget.stopped());
        assert!(seq.items.iter().any(|s| s == "<skipped>"));
        for jobs in 2..=4 {
            let par = run_toy(data, policy, jobs);
            assert_eq!(par.items, seq.items, "jobs={jobs}");
            assert_eq!(par.budget, seq.budget, "jobs={jobs}");
        }
    }

    #[test]
    fn clean_prefix_records_stream_before_a_trip() {
        // The trip is in the last chunk: every record before it must have
        // been consumed straight off the workers, not replayed.
        let policy = RecoveryPolicy::unlimited().with_max_errs(0);
        let data = b"a\nb\nc\nd\ne\nf\ng\nXlast\n";
        let par = run_toy(data, policy, 4);
        let seq = run_toy(data, policy, 1);
        assert_eq!(par.items, seq.items);
        assert_eq!(par.budget, seq.budget);
        assert!(par.streamed >= 2, "clean prefix records should stream without replay");
        assert!(par.streamed < par.items.len() as u64, "the tripping record replays");
    }

    #[test]
    fn single_shard_plan_uses_replay_directly() {
        let policy = RecoveryPolicy::unlimited();
        let run = run_toy(b"only\n", policy, 1);
        assert_eq!(run.items, vec!["only".to_owned()]);
        assert_eq!(run.streamed, 0, "single-shard plans stream through replay");
    }

    #[test]
    fn carried_stopped_budget_yields_no_records() {
        let policy = RecoveryPolicy::unlimited().with_max_errs(0);
        let mut carried = ErrorBudget::new();
        carried.note_record(&policy, 1, 0);
        assert!(carried.stopped());
        let run = run_toy_resumed(b"a\nb\n", policy, 4, carried);
        assert!(run.items.is_empty());
        assert_eq!(run.budget, carried);
    }

    #[test]
    fn carried_exhausted_budget_degrades_from_first_record() {
        let policy = RecoveryPolicy::unlimited()
            .with_max_errs(0)
            .with_on_exhausted(OnExhausted::SkipRecord);
        let mut carried = ErrorBudget::new();
        carried.note_record(&policy, 1, 0);
        assert!(carried.exhausted() && !carried.stopped());
        let run = run_toy_resumed(b"a\nb\n", policy, 4, carried);
        assert_eq!(run.items, vec!["<skipped>".to_owned(), "<skipped>".to_owned()]);
        assert_eq!(run.budget.skipped_records, carried.skipped_records + 2);
    }

    #[test]
    fn tight_channel_bound_still_merges_everything() {
        // One worker over twelve one-record chunks: its window holds two,
        // so it waits for the merge at nearly every claim.
        let data = b"a\nb\nc\nd\ne\nf\ng\nh\ni\nj\nk\nl\n";
        let plan = newline_plan(data, data.len());
        assert_eq!(plan.shards.len(), 12);
        let policy = RecoveryPolicy::unlimited();
        let run = run_toy_plan(data, &plan, policy, 1, ErrorBudget::new(), None);
        let seq = run_toy(data, policy, 1);
        assert_eq!(run.items, seq.items);
        assert_eq!(run.budget, seq.budget);
        assert_eq!(run.streamed, 12, "every record came off the worker");
        assert_eq!(run.overruns, 0);
    }

    /// `n` newline records, those at the `bad` indices carrying an error.
    fn numbered_lines(n: usize, bad: &[usize]) -> Vec<u8> {
        (0..n)
            .map(|i| format!("r{i}{}\n", if bad.contains(&i) { "X" } else { "" }))
            .collect::<String>()
            .into_bytes()
    }

    /// Eight chunks of 50 records: at one job a single worker holds every
    /// chunk, at two each worker holds several.
    fn eight_chunks(data: &[u8]) -> ShardPlan {
        let plan = newline_plan(data, 8);
        assert_eq!(plan.shards.len(), 8);
        plan
    }

    #[test]
    fn budget_trip_mid_chunk_diverts_at_the_exact_record() {
        // The trip lands mid-way through chunk 5 — a later chunk of
        // whichever worker holds it.
        let trip = 5 * 50 + 17;
        let data = numbered_lines(400, &[10, trip, 390]);
        let plan = eight_chunks(&data);
        for mode in [OnExhausted::Stop, OnExhausted::SkipRecord, OnExhausted::BestEffort] {
            let policy = RecoveryPolicy::unlimited().with_max_errs(1).with_on_exhausted(mode);
            let seq = run_toy(&data, policy, 1);
            for jobs in [1, 2, 3] {
                let par = run_toy_plan(&data, &plan, policy, jobs, ErrorBudget::new(), None);
                assert_eq!(par.items, seq.items, "{mode:?} jobs={jobs}");
                assert_eq!(par.budget, seq.budget, "{mode:?} jobs={jobs}");
                assert_eq!(par.progress, seq.progress, "{mode:?} jobs={jobs}");
                assert_eq!(par.streamed, trip as u64, "{mode:?} jobs={jobs}: diverts at the trip");
                assert_eq!(par.overruns, 0, "{mode:?} jobs={jobs}: window exceeded");
            }
        }
    }

    #[test]
    fn worker_panic_mid_chunk_diverts_at_the_exact_record() {
        let panic_at = 5 * 50 + 17;
        let data = numbered_lines(400, &[7, 300]);
        let plan = eight_chunks(&data);
        for mode in [OnExhausted::Stop, OnExhausted::SkipRecord, OnExhausted::BestEffort] {
            // The limit trips after the panic, in the replayed tail.
            let policy = RecoveryPolicy::unlimited().with_max_errs(1).with_on_exhausted(mode);
            let seq = run_toy(&data, policy, 1);
            for jobs in [1, 2, 3] {
                let fresh = ErrorBudget::new();
                let par = run_toy_plan(&data, &plan, policy, jobs, fresh, Some(panic_at));
                assert_eq!(par.items, seq.items, "{mode:?} jobs={jobs}");
                assert_eq!(par.budget, seq.budget, "{mode:?} jobs={jobs}");
                assert_eq!(par.progress, seq.progress, "{mode:?} jobs={jobs}");
                assert_eq!(
                    par.streamed, panic_at as u64,
                    "{mode:?} jobs={jobs}: records before the panic merge, the rest replay"
                );
                assert_eq!(par.overruns, 0, "{mode:?} jobs={jobs}: window exceeded");
            }
        }
    }

    #[test]
    fn panicked_worker_diverts_to_replay() {
        let data = b"a\nb\nc\nd\ne\nf\ng\nh\n";
        let plan = newline_plan(data, 4);
        assert!(plan.shards.len() > 1);
        let policy = RecoveryPolicy::unlimited();
        // The panic hits the first record of the second chunk.
        let at = plan.shards[1].first_record;
        let run = run_toy_plan(data, &plan, policy, 4, ErrorBudget::new(), Some(at));
        let seq = run_toy(data, policy, 1);
        assert_eq!(run.items, seq.items);
        assert_eq!(run.budget, seq.budget);
        assert_eq!(run.streamed, at as u64);
    }
}
