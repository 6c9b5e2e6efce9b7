//! Peak-RSS probe for the record-sharded merge: parses one large
//! generated CLF corpus and reports the process high-water mark (VmHWM
//! from /proc/self/status) for one of three retention profiles:
//!
//! - `seq` — sequential `records()` iterator, counting consumer
//! - `collect` — `records_par`, which materialises every record before
//!   returning — the retention profile of the pre-streaming merge (and
//!   of any caller that wants a `Vec` back)
//! - `stream` — the `ingest` driver with a counting consumer that keeps
//!   nothing of a record, so each tree is dropped where it was parsed;
//!   workers hold at most two `CHUNK_BYTES` chunks each ahead of the
//!   in-order merge, so retention stays flat
//!
//! VmHWM is a process-lifetime maximum, so each mode must run in its own
//! process: `rss_bench <seq|collect|stream> [records] [jobs]`.
//! Corpus generation is identical across modes and sets the common floor.

use pads::{
    descriptions, BaseMask, Ingest, Mask, NoObserver, PadsParser, ParseOptions, Registry,
    ResumePoint, SourceShape, CHUNK_BYTES,
};

fn vm_hwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read status");
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .expect("VmHWM value");
        }
    }
    panic!("no VmHWM in /proc/self/status");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str).unwrap_or("stream");
    let records: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(200_000);
    let jobs: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1);

    let (data, _) = pads_gen::clf::generate(&pads_gen::ClfConfig {
        records,
        ..Default::default()
    });
    let after_gen_kb = vm_hwm_kb();

    let schema = descriptions::clf();
    let registry = Registry::standard();
    let parser = PadsParser::new(&schema, &registry)
        .with_options(ParseOptions::default());
    let mask = Mask::all(BaseMask::CheckAndSet);

    let parsed = match mode {
        "seq" => {
            let mut it = parser.records(&data, "entry_t", &mask);
            it.by_ref().count()
        }
        "collect" => {
            let (items, _budget) = parser.records_par(&data, "entry_t", &mask, jobs);
            items.len()
        }
        "stream" => {
            let mut n = 0usize;
            let shape = SourceShape::records("entry_t");
            let start = ResumePoint::default();
            let none = None::<&NoObserver>;
            parser.ingest(&data, &shape, &mask, jobs, start, none, |_, _| (), |step| {
                n += usize::from(matches!(step, Ingest::Record(..)));
            });
            n
        }
        other => {
            eprintln!("rss_bench: unknown mode `{other}` (want seq|collect|stream)");
            std::process::exit(1);
        }
    };

    println!(
        "{{\"mode\": \"{mode}\", \"records\": {parsed}, \"jobs\": {jobs}, \
         \"chunk_bytes\": {CHUNK_BYTES}, \"data_bytes\": {}, \
         \"after_gen_kb\": {after_gen_kb}, \"vm_hwm_kb\": {}}}",
        data.len(),
        vm_hwm_kb()
    );
}
