//! The fixed runtime prelude emitted at the top of every generated module.
//!
//! Generated parsers are self-contained: they depend only on
//! `pads_runtime` plus these helper functions, which mirror the framing,
//! literal-matching, and base-type reading semantics of the interpreting
//! parser. The text below is injected verbatim by [`crate::generate_rust`].

/// Helper source injected into every generated module.
pub const PRELUDE: &str = r#"
use pads_runtime::date::PDate;
use pads_runtime::{
    AVal, Charset, ClassBitmap, Cursor, Endian, ErrorBudget, ErrorCode, Loc, Mask, MetricsCore,
    Name, NameId, NameTable, ParseDesc, ParseState, PdKind, Pos, Prim, PrimView, RecoveryPolicy,
    Registry, ResumePoint, SparseElts, ValueArena,
};

// ---- borrowed string leaves --------------------------------------------------

/// A parsed string leaf. On the ASCII fast path it borrows directly from
/// the input buffer (zero copies, zero allocations); it owns a heap
/// `String` only when decoding had to rewrite bytes (EBCDIC input,
/// non-UTF-8 content) or when the value came through the dynamic registry.
///
/// `PStr` dereferences to `str`, so consumers treat it as a plain string;
/// call [`PStr::into_owned`] to detach it from the buffer.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PStr<'s>(pub std::borrow::Cow<'s, str>);

impl<'s> PStr<'s> {
    /// Borrows a slice of the input buffer.
    pub fn borrowed(s: &'s str) -> PStr<'s> {
        PStr(std::borrow::Cow::Borrowed(s))
    }

    /// Wraps an owned (decoded) string.
    pub fn owned(s: String) -> PStr<'static> {
        PStr(std::borrow::Cow::Owned(s))
    }

    /// The string content.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Detaches the value from the input buffer.
    pub fn into_owned(self) -> String {
        self.0.into_owned()
    }
}

impl Default for PStr<'_> {
    fn default() -> Self {
        PStr(std::borrow::Cow::Borrowed(""))
    }
}

impl std::ops::Deref for PStr<'_> {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for PStr<'_> {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for PStr<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl PartialEq<str> for PStr<'_> {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for PStr<'_> {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for PStr<'_> {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<PStr<'_>> for str {
    fn eq(&self, other: &PStr<'_>) -> bool {
        self == other.as_str()
    }
}

impl<'s> From<&'s str> for PStr<'s> {
    fn from(s: &'s str) -> PStr<'s> {
        PStr::borrowed(s)
    }
}

impl From<String> for PStr<'static> {
    fn from(s: String) -> PStr<'static> {
        PStr::owned(s)
    }
}

fn registry() -> &'static Registry {
    static R: std::sync::OnceLock<Registry> = std::sync::OnceLock::new();
    R.get_or_init(Registry::standard)
}

// ---- value coercions for compiled constraints -------------------------------

pub trait PcVal {
    fn pc_num(&self) -> i64;
    fn pc_str(&self) -> Option<&str> {
        None
    }
}

macro_rules! pc_num_impl {
    ($($t:ty),*) => {$(
        impl PcVal for $t {
            fn pc_num(&self) -> i64 { *self as i64 }
        }
    )*};
}
pc_num_impl!(u8, u16, u32, u64, i8, i16, i32, i64, bool);

impl PcVal for f64 {
    fn pc_num(&self) -> i64 {
        *self as i64
    }
}

impl PcVal for f32 {
    fn pc_num(&self) -> i64 {
        *self as i64
    }
}

impl PcVal for String {
    fn pc_num(&self) -> i64 {
        0
    }
    fn pc_str(&self) -> Option<&str> {
        Some(self)
    }
}

impl PcVal for PStr<'_> {
    fn pc_num(&self) -> i64 {
        0
    }
    fn pc_str(&self) -> Option<&str> {
        Some(self.as_str())
    }
}

impl PcVal for str {
    fn pc_num(&self) -> i64 {
        0
    }
    fn pc_str(&self) -> Option<&str> {
        Some(self)
    }
}

impl PcVal for PDate {
    fn pc_num(&self) -> i64 {
        self.epoch
    }
}

impl PcVal for [u8; 4] {
    fn pc_num(&self) -> i64 {
        u32::from_be_bytes(*self) as i64
    }
}

impl PcVal for Prim {
    fn pc_num(&self) -> i64 {
        self.as_i64().unwrap_or(0)
    }
    fn pc_str(&self) -> Option<&str> {
        self.as_str()
    }
}

impl<T: PcVal> PcVal for Option<T> {
    fn pc_num(&self) -> i64 {
        self.as_ref().map(PcVal::pc_num).unwrap_or(0)
    }
    fn pc_str(&self) -> Option<&str> {
        self.as_ref().and_then(PcVal::pc_str)
    }
}

pub fn pc_eq<A: PcVal + ?Sized, B: PcVal + ?Sized>(a: &A, b: &B) -> bool {
    match (a.pc_str(), b.pc_str()) {
        (Some(x), Some(y)) => x == y,
        (None, None) => a.pc_num() == b.pc_num(),
        _ => false,
    }
}

pub fn pc_cmp<A: PcVal + ?Sized, B: PcVal + ?Sized>(a: &A, b: &B) -> std::cmp::Ordering {
    match (a.pc_str(), b.pc_str()) {
        (Some(x), Some(y)) => x.cmp(y),
        _ => a.pc_num().cmp(&b.pc_num()),
    }
}

// ---- framing and literals ----------------------------------------------------

/// Opens a record if `is_record` and none is open. Returns
/// `(opened, pending_error, hard_eof, budget_skipped)`. When the error
/// budget is exhausted in skip-record mode, the record is framed and
/// skipped wholesale and the ready-made descriptor is returned instead of
/// parsing (mirroring the interpreting parser's graceful degradation).
fn pc_open_record(
    cur: &mut Cursor<'_>,
) -> (bool, Option<(ErrorCode, Loc)>, bool, Option<ParseDesc>) {
    if cur.in_record() {
        return (false, None, false, None);
    }
    if cur.skip_records() && !cur.at_eof() {
        // The record-relative byte of a record's own start is 0; the
        // cursor's tracking still points at the previous record here (and
        // a resumed cursor has no previous record at all).
        let start = Pos { byte: 0, ..cur.position() };
        if cur.begin_record().is_ok() {
            let _ = cur.end_record();
        }
        let mut pd =
            ParseDesc::error(ErrorCode::BudgetExhausted, Loc::new(start, cur.position()));
        pd.state = ParseState::Panic;
        cur.note_skipped_record();
        cur.observe_record_close(&pd);
        return (false, None, false, Some(pd));
    }
    match cur.begin_record() {
        Ok(()) => (true, None, false, None),
        Err(ErrorCode::UnexpectedEof) => (false, None, true, None),
        Err(code) => (true, Some((code, Loc::at(cur.position()))), false, None),
    }
}

/// Closes a record opened by `pc_open_record`, handling panic recovery,
/// trailing-data detection, skipped-byte accounting, and the error budget
/// exactly like the interpreting parser.
fn pc_close_record(cur: &mut Cursor<'_>, pd: &mut ParseDesc, syntax_failed: bool) {
    let mut panic_skipped = 0u64;
    if syntax_failed {
        let at = cur.position();
        let close = cur.end_record();
        if close.skipped > 0 {
            pd.note_panic_skip(Loc::new(
                at,
                Pos {
                    offset: at.offset + close.skipped,
                    record: at.record,
                    byte: at.byte + close.skipped,
                },
            ));
            panic_skipped = close.skipped as u64;
        }
    } else {
        if !cur.at_eor() {
            pd.add_error(ErrorCode::ExtraDataBeforeEor, Loc::at(cur.position()));
        }
        let close = cur.end_record();
        panic_skipped = close.skipped as u64;
    }
    if let Some(cap) = cur.policy().max_record_errs {
        if pd.nerr > cap {
            pd.truncate_detail();
        }
    }
    cur.note_record_errors(pd.nerr, panic_skipped);
    if cur.best_effort() {
        pd.truncate_detail();
    }
    cur.observe_record_close(pd);
}

/// Whether a descriptor records a syntactic (non-constraint) problem.
pub fn pc_syntax_failed(pd: &ParseDesc) -> bool {
    if pd.state != ParseState::Ok {
        return true;
    }
    if pd.nerr == 0 {
        return false;
    }
    pd.errors().iter().any(|(_, code, _)| !code.is_semantic())
}

fn pc_match_str(cur: &mut Cursor<'_>, lit: &[u8]) -> bool {
    if cur.charset() == Charset::Ascii {
        cur.match_bytes(lit)
    } else {
        let enc: Vec<u8> = lit.iter().map(|&b| cur.charset().encode(b)).collect();
        cur.match_bytes(&enc)
    }
}

fn pc_match_char(cur: &mut Cursor<'_>, c: u8) -> bool {
    let raw = cur.charset().encode(c);
    if cur.peek() == Some(raw) {
        cur.advance(1);
        true
    } else {
        false
    }
}

fn pc_match_regex(cur: &mut Cursor<'_>, pat: &str) -> bool {
    match cur.regex(pat) {
        Ok(re) => cur.match_regex(&re).is_some(),
        Err(_) => false,
    }
}

// ---- base-type readers ---------------------------------------------------------

/// Dynamic fallback through the registry; restores the cursor on error.
fn rd_prim(cur: &mut Cursor<'_>, name: &str, args: &[Prim]) -> Result<Prim, ErrorCode> {
    let bt = registry().get(name).ok_or(ErrorCode::EvalError)?;
    let cp = cur.checkpoint();
    match bt.parse(cur, args) {
        Ok(p) => Ok(p),
        Err(e) => {
            cur.restore(cp);
            Err(e)
        }
    }
}

fn wr_text(out: &mut Vec<u8>, s: &str, charset: Charset) {
    if charset == Charset::Ascii {
        out.extend_from_slice(s.as_bytes());
    } else {
        out.extend(s.bytes().map(|b| charset.encode(b)));
    }
}

fn wr_u64(out: &mut Vec<u8>, v: u64, charset: Charset) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    let mut v = v;
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    if charset == Charset::Ascii {
        out.extend_from_slice(&buf[i..]);
    } else {
        out.extend(buf[i..].iter().map(|&b| charset.encode(b)));
    }
}

fn wr_i64(out: &mut Vec<u8>, v: i64, charset: Charset) {
    if v < 0 {
        out.push(charset.encode(b'-'));
    }
    wr_u64(out, v.unsigned_abs(), charset);
}

fn wr_prim(
    out: &mut Vec<u8>,
    name: &str,
    v: &Prim,
    args: &[Prim],
    charset: Charset,
    endian: Endian,
) -> Result<(), ErrorCode> {
    let bt = registry().get(name).ok_or(ErrorCode::EvalError)?;
    bt.write(out, v, args, charset, endian)
}

/// ASCII `0`..`9` as a scan-kernel class (bits 0x30..=0x39 of word 0).
const PC_DIGITS: ClassBitmap = ClassBitmap::from_bits([0x03FF_0000_0000_0000, 0, 0, 0]);

/// Accumulates an already-scanned ASCII digit run, rejecting overflow.
fn pc_fold_digits(digits: &[u8]) -> Result<u64, ErrorCode> {
    let mut val: u64 = 0;
    for &b in digits {
        val = val
            .checked_mul(10)
            .and_then(|v| v.checked_add((b - b'0') as u64))
            .ok_or(ErrorCode::RangeError)?;
    }
    Ok(val)
}

/// Fast inline decimal reader for the ambient charset (ASCII fast path).
/// The digit run is found in bulk by the SWAR class kernel; only the
/// accumulate pass touches bytes individually.
fn rd_uint(cur: &mut Cursor<'_>, bits: u32, forced: Option<Charset>) -> Result<u64, ErrorCode> {
    let cs = forced.unwrap_or(cur.charset());
    if cs == Charset::Ascii {
        let rest = cur.rest();
        let n = pads_runtime::skip_class(rest, &PC_DIGITS);
        if n == 0 {
            return Err(ErrorCode::InvalidDigit);
        }
        let val = pc_fold_digits(&rest[..n])?;
        if bits < 64 && val >= 1u64 << bits {
            return Err(ErrorCode::RangeError);
        }
        cur.advance(n);
        Ok(val)
    } else {
        let name = match bits {
            8 => "Pe_uint8",
            16 => "Pe_uint16",
            32 => "Pe_uint32",
            _ => "Pe_uint64",
        };
        match rd_prim(cur, name, &[])? {
            Prim::Uint(v) => Ok(v),
            _ => Err(ErrorCode::EvalError),
        }
    }
}

fn rd_int(cur: &mut Cursor<'_>, bits: u32, forced: Option<Charset>) -> Result<i64, ErrorCode> {
    let cs = forced.unwrap_or(cur.charset());
    if cs == Charset::Ascii {
        let rest = cur.rest();
        let mut i = 0usize;
        let mut neg = false;
        if matches!(rest.first(), Some(b'-' | b'+')) {
            neg = rest[0] == b'-';
            i = 1;
        }
        let n = pads_runtime::skip_class(&rest[i..], &PC_DIGITS);
        if n == 0 {
            return Err(ErrorCode::InvalidDigit);
        }
        let mag = pc_fold_digits(&rest[i..i + n])?;
        let val = if neg {
            i64::try_from(mag).map(i64::wrapping_neg).map_err(|_| ErrorCode::RangeError)?
        } else {
            i64::try_from(mag).map_err(|_| ErrorCode::RangeError)?
        };
        if bits < 64 {
            let max = (1i64 << (bits - 1)) - 1;
            let min = -(1i64 << (bits - 1));
            if val < min || val > max {
                return Err(ErrorCode::RangeError);
            }
        }
        cur.advance(i + n);
        Ok(val)
    } else {
        let name = match bits {
            8 => "Pe_int8",
            16 => "Pe_int16",
            32 => "Pe_int32",
            _ => "Pe_int64",
        };
        match rd_prim(cur, name, &[])? {
            Prim::Int(v) => Ok(v),
            _ => Err(ErrorCode::EvalError),
        }
    }
}

fn rd_uint_fw(
    cur: &mut Cursor<'_>,
    bits: u32,
    width: u64,
    forced: Option<Charset>,
) -> Result<u64, ErrorCode> {
    let _ = forced;
    // Static registry names: a per-field `format!` here shows up as a whole
    // allocation per record on fixed-width-heavy corpora (alloc_gate).
    let name = match bits {
        8 => "Puint8_FW",
        16 => "Puint16_FW",
        32 => "Puint32_FW",
        _ => "Puint64_FW",
    };
    match rd_prim(cur, name, &[Prim::Uint(width)])? {
        Prim::Uint(v) => Ok(v),
        _ => Err(ErrorCode::EvalError),
    }
}

fn rd_int_fw(
    cur: &mut Cursor<'_>,
    bits: u32,
    width: u64,
    forced: Option<Charset>,
) -> Result<i64, ErrorCode> {
    let _ = forced;
    let name = match bits {
        8 => "Pint8_FW",
        16 => "Pint16_FW",
        32 => "Pint32_FW",
        _ => "Pint64_FW",
    };
    match rd_prim(cur, name, &[Prim::Uint(width)])? {
        Prim::Int(v) => Ok(v),
        _ => Err(ErrorCode::EvalError),
    }
}

fn rd_string_term<'d>(cur: &mut Cursor<'d>, term: u8) -> Result<PStr<'d>, ErrorCode> {
    let cs = cur.charset();
    let raw_term = cs.encode(term);
    let len = cur.find_byte(raw_term).unwrap_or(cur.remaining());
    let raw = cur.take(len)?;
    if cs == Charset::Ascii {
        // Pure ASCII is valid UTF-8, so the leaf borrows the buffer.
        if let Ok(s) = std::str::from_utf8(raw) {
            if s.is_ascii() {
                return Ok(PStr::borrowed(s));
            }
        }
    }
    Ok(PStr::owned(cs.decode_text(raw)))
}

fn rd_char(cur: &mut Cursor<'_>, forced: Option<Charset>) -> Result<u8, ErrorCode> {
    let cs = forced.unwrap_or(cur.charset());
    let b = cur.next_byte().ok_or(if cur.in_record() {
        ErrorCode::UnexpectedEor
    } else {
        ErrorCode::UnexpectedEof
    })?;
    Ok(cs.decode(b))
}

/// Registry read for string-kinded base types through the zero-copy
/// `parse_view` tier: `Phostname`, `Pzip`, and friends hand back a slice
/// of the input buffer on the ASCII identity path, so the leaf borrows
/// instead of allocating. Owned fallback otherwise (EBCDIC, rewriting
/// decoders). Restores the cursor on error, like `rd_prim`.
fn rd_string<'d>(cur: &mut Cursor<'d>, name: &str, args: &[Prim]) -> Result<PStr<'d>, ErrorCode> {
    let bt = registry().get(name).ok_or(ErrorCode::EvalError)?;
    let cp = cur.checkpoint();
    match bt.parse_view(cur, args) {
        Ok(PrimView::Str(s)) => Ok(PStr::borrowed(s)),
        Ok(PrimView::Owned(Prim::String(s))) => Ok(PStr::owned(s)),
        Ok(_) => {
            cur.restore(cp);
            Err(ErrorCode::EvalError)
        }
        Err(e) => {
            cur.restore(cp);
            Err(e)
        }
    }
}

fn rd_date(cur: &mut Cursor<'_>, term: Option<u8>) -> Result<PDate, ErrorCode> {
    // The terminator rides in a stack buffer: no per-call Vec.
    let buf;
    let args: &[Prim] = match term {
        Some(t) => {
            buf = [Prim::Char(t)];
            &buf
        }
        None => &[],
    };
    match rd_prim(cur, "Pdate", args)? {
        Prim::Date(d) => Ok(d),
        _ => Err(ErrorCode::EvalError),
    }
}

fn rd_ip(cur: &mut Cursor<'_>) -> Result<[u8; 4], ErrorCode> {
    match rd_prim(cur, "Pip", &[])? {
        Prim::Ip(o) => Ok(o),
        _ => Err(ErrorCode::EvalError),
    }
}

fn rd_float(cur: &mut Cursor<'_>, name: &str) -> Result<f64, ErrorCode> {
    match rd_prim(cur, name, &[])? {
        Prim::Float(v) => Ok(v),
        _ => Err(ErrorCode::EvalError),
    }
}

fn rd_i64_dyn(cur: &mut Cursor<'_>, name: &str, args: &[Prim]) -> Result<i64, ErrorCode> {
    match rd_prim(cur, name, args)? {
        Prim::Int(v) => Ok(v),
        Prim::Uint(v) => i64::try_from(v).map_err(|_| ErrorCode::RangeError),
        _ => Err(ErrorCode::EvalError),
    }
}

fn rd_u64_dyn(cur: &mut Cursor<'_>, name: &str, args: &[Prim]) -> Result<u64, ErrorCode> {
    match rd_prim(cur, name, args)? {
        Prim::Uint(v) => Ok(v),
        Prim::Int(v) => u64::try_from(v).map_err(|_| ErrorCode::RangeError),
        _ => Err(ErrorCode::EvalError),
    }
}

// ---- parallel record-sharded driver ------------------------------------------

/// Record-sharded parallel engine behind the generated `parse_records_par`
/// entry points.
///
/// `make` builds a cursor over a byte slice exactly as the caller would for
/// `parse_source` (charset, endianness, record discipline, recovery
/// policy); `read` parses ONE record (a generated `read` method). The
/// source is split at record boundaries into up to `jobs` shards parsed on
/// worker threads with source-level error limits stripped; each worker
/// *streams* its records through a bounded channel into an in-order merge
/// that applies the real policy cumulatively. The first record that trips a
/// source limit (or a panicked worker) diverts to a sequential replay from
/// that record's boundary, so the result is byte-identical to looping
/// `read` sequentially — see `pads_runtime::par` for the argument.
///
/// Observers cannot cross threads (`make` must be `Sync`, and observer
/// handles are not), so parallel runs are unobserved by construction.
pub fn pc_parse_records_par<'d, T, M, F>(
    data: &'d [u8],
    jobs: usize,
    make: M,
    read: F,
) -> (Vec<(T, ParseDesc)>, ErrorBudget)
where
    T: Send,
    M: Fn(&'d [u8]) -> Cursor<'d> + Sync,
    F: for<'b> Fn(&'b mut Cursor<'d>) -> (T, ParseDesc) + Sync,
{
    pc_parse_records_resumed(data, ResumePoint::default(), jobs, make, read)
}

/// Like `pc_parse_records_par`, but continuing from a committed
/// `ResumePoint` (global source coordinates): parsing starts at
/// `resume.offset` — which must be a record boundary, e.g. the byte offset
/// a checkpoint journal committed — record indices continue from
/// `resume.record`, and the error budget is restored. A completed run
/// equals a killed run resumed from any checkpoint: same values,
/// descriptors, and budget for the uncommitted suffix.
pub fn pc_parse_records_resumed<'d, T, M, F>(
    data: &'d [u8],
    resume: ResumePoint,
    jobs: usize,
    make: M,
    read: F,
) -> (Vec<(T, ParseDesc)>, ErrorBudget)
where
    T: Send,
    M: Fn(&'d [u8]) -> Cursor<'d> + Sync,
    F: for<'b> Fn(&'b mut Cursor<'d>) -> (T, ParseDesc) + Sync,
{
    use pads_runtime::par::{self, Chunks, RecordMsg};

    if resume.budget.stopped() {
        return (Vec::new(), resume.budget);
    }
    let base = resume.offset.min(data.len());
    let tail = &data[base..];
    let probe = make(data);
    let policy = probe.policy();
    let plan = par::plan_chunks(tail, probe.discipline(), probe.charset(), jobs);
    let stripped = RecoveryPolicy {
        max_errs: None,
        max_panic_skip: None,
        ..policy
    };

    // Workers parse each chunk in isolation and ship each record with its
    // budget delta; descriptors are rebased to global coordinates here so
    // the merge is coordinate-agnostic.
    let worker = |chunks: &Chunks<'_, (T, ParseDesc), ()>| {
        while let Some((shard, mut tx)) = chunks.next() {
            let mut cur = make(&tail[shard.start..shard.end]).with_policy(stripped);
            let mut prev = cur.budget();
            loop {
                if cur.at_eof() {
                    break;
                }
                let mark = cur.offset();
                let (v, mut pd) = read(&mut cur);
                pd.rebase(base + shard.start, resume.record + shard.first_record);
                let after = cur.budget();
                let msg = RecordMsg {
                    nerr: after.errs.saturating_sub(prev.errs) as u32,
                    panic_skipped: after.panic_skipped.saturating_sub(prev.panic_skipped),
                    end_offset: shard.start + cur.offset(),
                    extra: None,
                    item: (v, pd),
                };
                prev = after;
                if !tx.send(msg) {
                    return;
                }
                if cur.offset() == mark {
                    break;
                }
            }
        }
    };

    // Sequential replay: a cursor positioned at the divergence boundary in
    // global coordinates, carrying the merged budget, under the full
    // policy — descriptors come out global without rebasing.
    let replay = |from: par::ResumePoint,
                  emit: &mut dyn FnMut((T, ParseDesc), usize, ErrorBudget, Option<()>)| {
        let mut cur = make(data).with_start(base + from.offset, resume.record + from.record);
        cur.set_budget(from.budget);
        loop {
            if cur.at_eof() {
                break;
            }
            let mark = cur.offset();
            let item = read(&mut cur);
            let end = cur.offset() - base;
            emit(item, end, cur.budget(), None);
            if cur.offset() == mark {
                break;
            }
        }
        cur.budget()
    };

    let mut items = Vec::new();
    let budget = par::run_sharded(
        &plan,
        &policy,
        resume.budget,
        jobs,
        worker,
        replay,
        |item, _extra, _progress| items.push(item),
    );
    (items, budget)
}
"#;
