//! Helper binary for the pads benchmark (`perfbench/run.py` drives it).
//!
//! ```text
//! perfbench gen    --workload W --seed S --dir D [--records N]
//! perfbench ladder --workload W --dir D --seconds T --jobs N [--max-errs M]
//! perfbench calib
//! ```
//!
//! `gen` writes the seeded corpus of a workload and its truth file into
//! `D`; `ladder` runs the traced per-layer pass over that corpus, writes
//! `D/spans.jsonl`, and prints the per-layer metrics as one JSON object;
//! `calib` times a fixed reference kernel once per line of standard input.

mod calib;
mod corpus;
mod ladder;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;

use corpus::Workload;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    dir: Option<PathBuf>,
    records: Option<usize>,
    seconds: f64,
    jobs: usize,
    max_errs: Option<u64>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        dir: None,
        records: None,
        seconds: 1.0,
        jobs: 1,
        max_errs: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value `{value}`");
        match flag.as_str() {
            "--workload" => a.workload = Some(Workload::parse(value)?),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--dir" => a.dir = Some(PathBuf::from(value)),
            "--records" => a.records = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--jobs" => a.jobs = value.parse().map_err(|_| bad())?,
            "--max-errs" => a.max_errs = Some(value.parse().map_err(|_| bad())?),
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(a)
}

fn run(args: &[String]) -> Result<(), String> {
    let (cmd, rest) = args
        .split_first()
        .ok_or("usage: perfbench <gen|ladder|calib> …")?;
    if cmd == "calib" {
        return calib::serve();
    }
    let a = parse_args(rest)?;
    let workload = a.workload.ok_or("--workload is required")?;
    let dir = a.dir.ok_or("--dir is required")?;
    match cmd.as_str() {
        "gen" => {
            let records = a.records.unwrap_or_else(|| workload.default_records());
            corpus::generate(workload, a.seed, records, &dir)
        }
        "ladder" => {
            let json = ladder::run(workload, &dir, a.seconds, a.jobs.max(1), a.max_errs)?;
            println!("{json}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}
