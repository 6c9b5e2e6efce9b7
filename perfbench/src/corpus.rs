//! Seeded corpora for the three workloads, plus the independent truth the
//! output checks compare against.
//!
//! Every file is a pure function of (workload, seed, records): the same
//! arguments write the same bytes.

use std::fmt::Write as _;
use std::path::Path;

use pads::{BaseMask, Engine, Mask, PadsParser, ParseOptions, RecoveryPolicy, Registry};
use pads_runtime::{count_byte, FaultPlan};

/// The benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Clean CLF web log at the paper's 6.666% `-`-length rate.
    ClfWeblog,
    /// Sirius orders with the paper's statistics (header + nested events).
    SiriusOrders,
    /// The CLF corpus mutated by a `FaultPlan`, parsed under a budget.
    ClfFaulty,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::ClfWeblog,
        Workload::SiriusOrders,
        Workload::ClfFaulty,
    ];

    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload `{name}`"))
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ClfWeblog => "clf_weblog",
            Workload::SiriusOrders => "sirius_orders",
            Workload::ClfFaulty => "clf_faulty",
        }
    }

    /// Default corpus size in records (orders for Sirius).
    pub fn default_records(self) -> usize {
        match self {
            Workload::ClfWeblog | Workload::ClfFaulty => 40_000,
            Workload::SiriusOrders => 20_000,
        }
    }

    pub fn description(self) -> &'static str {
        match self {
            Workload::ClfWeblog | Workload::ClfFaulty => pads::descriptions::CLF,
            Workload::SiriusOrders => pads::descriptions::SIRIUS,
        }
    }

    /// The header record type, for header+records sources.
    pub fn header(self) -> Option<&'static str> {
        match self {
            Workload::SiriusOrders => Some("summary_header_t"),
            Workload::ClfWeblog | Workload::ClfFaulty => None,
        }
    }

    /// The repeated record type.
    pub fn record(self) -> &'static str {
        "entry_t"
    }
}

/// Byte offset just past the `n`-th newline (or the end of `data`).
pub fn after_lines(data: &[u8], n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    let mut seen = 0;
    for (i, &b) in data.iter().enumerate() {
        if b == b'\n' {
            seen += 1;
            if seen == n {
                return i + 1;
            }
        }
    }
    data.len()
}

/// Records a newline-framed parse yields over `data`: one per newline plus
/// a final record without a trailing newline.
pub fn framed(data: &[u8]) -> usize {
    count_byte(data, b'\n') + usize::from(data.last().is_some_and(|&b| b != b'\n'))
}

/// The fault plan for the `clf_faulty` workload: bit flips on about one
/// record in ten plus a few hundred newline-biased inserts and deletes.
fn fault_plan(seed: u64, records: usize) -> FaultPlan {
    let edits = (records / 500).clamp(1, 300) as u32;
    FaultPlan {
        seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        bit_flips: (records / 10).max(1) as u32,
        deletions: edits,
        insertions: edits,
        truncate: false,
    }
}

/// An error budget that trips about halfway through `data`: the error
/// tally after half the records of an unlimited parse.
fn halfway_budget(data: &[u8], record: &str, records: usize) -> u64 {
    let registry = Registry::standard();
    let schema = pads::descriptions::clf();
    let options = ParseOptions {
        engine: Engine::Vm,
        ..Default::default()
    };
    let parser = PadsParser::new(&schema, &registry).with_options(options);
    let mask = Mask::all(BaseMask::CheckAndSet);
    let mut it = parser.records(data, record, &mask);
    for _ in (&mut it).take(records / 2) {}
    it.budget().errs.max(1)
}

/// The policy every command of `workload` runs under.
pub fn policy(max_errs: Option<u64>) -> RecoveryPolicy {
    match max_errs {
        Some(n) => RecoveryPolicy::unlimited()
            .with_max_errs(n)
            .with_on_exhausted(pads_runtime::OnExhausted::SkipRecord),
        None => RecoveryPolicy::unlimited(),
    }
}

/// Writes the corpus, its one-record and quarter prefixes, the
/// description, and `truth.json` into `dir`.
pub fn generate(workload: Workload, seed: u64, records: usize, dir: &Path) -> Result<(), String> {
    let (data, header_len, bad_records, generated) = match workload {
        Workload::ClfWeblog | Workload::ClfFaulty => {
            let (data, stats) = pads_gen::clf::generate(&pads_gen::ClfConfig {
                records,
                seed,
                ..Default::default()
            });
            (data, 0, stats.dash_lengths, stats.records)
        }
        Workload::SiriusOrders => {
            let (data, stats) = pads_gen::sirius::generate(&pads_gen::SiriusConfig {
                records,
                seed,
                ..Default::default()
            });
            let mut bad = stats.syntax_error_records.clone();
            bad.extend(&stats.sort_violation_records);
            bad.sort_unstable();
            bad.dedup();
            let header_len = after_lines(&data, 1);
            (data, header_len, bad.len(), stats.records)
        }
    };
    let clean_framed = framed(&data[header_len..]);
    if clean_framed != generated {
        return Err(format!(
            "generator wrote {generated} records but the corpus frames {clean_framed}"
        ));
    }
    let (data, bad_records, max_errs) = if workload == Workload::ClfFaulty {
        let faulted = fault_plan(seed, records).apply(&data);
        let n = framed(&faulted);
        let budget = halfway_budget(&faulted, workload.record(), n);
        (faulted, None, Some(budget))
    } else {
        (data, Some(bad_records), None)
    };
    let body = &data[header_len..];
    let framed_records = framed(body);
    let prefix1 = &data[..header_len + after_lines(body, 1)];
    let quarter = &data[..header_len + after_lines(body, framed_records / 4)];

    let write = |name: &str, bytes: &[u8]| {
        std::fs::write(dir.join(name), bytes).map_err(|e| format!("{name}: {e}"))
    };
    write("desc.pads", workload.description().as_bytes())?;
    write("data.log", &data)?;
    write("prefix1.log", prefix1)?;
    write("quarter.log", quarter)?;

    let opt = |v: Option<u64>| v.map_or("null".to_owned(), |n| n.to_string());
    let mut truth = String::from("{");
    let _ = write!(
        truth,
        "\"input_bytes\": {}, \"quarter_bytes\": {}, \"generated_records\": {generated}, \
         \"framed_records\": {framed_records}, \"source_records\": {}, \"newlines\": {}, \
         \"bad_records\": {}, \"max_errs\": {}, \"header\": {}}}",
        data.len(),
        quarter.len(),
        framed(&data),
        count_byte(&data, b'\n'),
        opt(bad_records.map(|n| n as u64)),
        opt(max_errs),
        workload.header().is_some(),
    );
    write("truth.json", truth.as_bytes())
}
