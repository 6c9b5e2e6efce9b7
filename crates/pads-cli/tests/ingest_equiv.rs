//! Ingest equivalence: every subcommand that reads records (`parse` in all
//! its output modes, `profile`, `accum`, `fmt`) must print the same thing
//! at `--jobs 1`, at `--jobs 4`, and under `--journal`, over each bundled
//! description and its torture corpus.
//!
//! Each case has one checked-in expected file under
//! `tests/golden/ingest/<description>-<case>.txt`: the exit status, stdout,
//! and stderr without the `pads: metrics:` timing line. The `--jobs 1`
//! output is the reference; the other modes may only add the one stderr
//! note that explains why `--jobs` was ignored.
//!
//! The bundled torture corpora hold a dozen records or fewer, so
//! `generated_corpora_print_the_same_at_every_jobs` also runs corpora from
//! `pads_gen` large enough to give every worker several chunks.
//!
//! Regenerate after an intentional change by running each case at
//! `--jobs 1` from the repository root, e.g.
//!
//! ```text
//! pads parse descriptions/clf.pads tests/data/torture_clf.log --format report --jobs 1
//! ```
//!
//! and writing `exit: <status>`, `--- stdout`, the stdout bytes,
//! `--- stderr`, and the stderr lines other than `pads: metrics:`.

use std::path::{Path, PathBuf};
use std::process::Command;

const DESCRIPTIONS: [(&str, &str); 3] = [
    ("clf", "tests/data/torture_clf.log"),
    ("sirius", "tests/data/torture_sirius.txt"),
    ("mixed", "tests/data/torture_mixed.txt"),
];

/// `(case name, subcommand and flags)`.
const CASES: [(&str, &[&str]); 10] = [
    ("parse_report", &["parse", "--format", "report"]),
    ("parse_xml", &["parse", "--format", "xml"]),
    ("parse_none", &["parse", "--format", "none"]),
    ("parse_metrics", &["parse", "--metrics=json"]),
    ("parse_trace", &["parse", "--trace"]),
    ("parse_profile", &["parse", "--profile"]),
    ("profile", &["profile"]),
    ("profile_folded", &["profile", "--folded"]),
    ("accum", &["accum"]),
    ("fmt", &["fmt"]),
];

/// The `parse` cases a journal accepts (xml, trace and profile are
/// rejected).
const JOURNAL_CASES: [&str; 3] = ["parse_report", "parse_none", "parse_metrics"];

const TRACE_NOTE: &str = "pads: --trace forces a sequential parse; ignoring --jobs\n";
const PROFILE_NOTE: &str = "pads: --profile forces a sequential parse; ignoring --jobs\n";
const XML_NOTE: &str = "pads: --format xml forces a sequential parse; ignoring --jobs\n";

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pads-ingest-equiv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// One run, rendered the way the expected files are written.
fn run(desc: &str, data: &str, args: &[&str], extra: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_pads"))
        .current_dir(repo_root())
        .arg(args[0])
        .arg(format!("descriptions/{desc}.pads"))
        .arg(data)
        .args(&args[1..])
        .args(extra)
        .output()
        .expect("pads binary runs");
    let code = out.status.code().map_or("signal".to_owned(), |c| c.to_string());
    let mut rendered = format!("exit: {code}\n--- stdout\n").into_bytes();
    rendered.extend_from_slice(&out.stdout);
    rendered.extend_from_slice(b"--- stderr\n");
    for line in out.stderr.split_inclusive(|&b| b == b'\n') {
        if !line.starts_with(b"pads: metrics:") {
            rendered.extend_from_slice(line);
        }
    }
    rendered
}

fn expected(desc: &str, case: &str) -> Vec<u8> {
    let path = repo_root().join(format!("crates/pads-cli/tests/golden/ingest/{desc}-{case}.txt"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The expected file with `note` put first on stderr.
fn with_note(mut want: Vec<u8>, note: &str) -> Vec<u8> {
    let marker = b"--- stderr\n";
    let at = want
        .windows(marker.len())
        .rposition(|w| w == marker)
        .expect("expected file has a stderr section")
        + marker.len();
    want.splice(at..at, note.bytes());
    want
}

/// The stderr note a `--jobs 4` run adds to the `--jobs 1` output. The
/// records behind a header shard like any others, so a header source adds
/// none.
fn jobs_note(case: &str) -> &'static str {
    match case {
        "parse_trace" => TRACE_NOTE,
        "parse_profile" | "profile" | "profile_folded" => PROFILE_NOTE,
        "parse_xml" => XML_NOTE,
        _ => "",
    }
}

fn assert_same(got: &[u8], want: &[u8], what: &str) {
    assert!(
        got == want,
        "{what}\n--- got\n{}\n--- want\n{}",
        String::from_utf8_lossy(got),
        String::from_utf8_lossy(want)
    );
}

#[test]
fn jobs_1_matches_the_expected_files() {
    for (desc, data) in DESCRIPTIONS {
        for (case, args) in CASES {
            let got = run(desc, data, args, &["--jobs", "1"]);
            assert_same(&got, &expected(desc, case), &format!("{desc} {case} --jobs 1"));
        }
    }
}

#[test]
fn jobs_4_matches_jobs_1() {
    for (desc, data) in DESCRIPTIONS {
        for (case, args) in CASES {
            let got = run(desc, data, args, &["--jobs", "4"]);
            let want = with_note(expected(desc, case), jobs_note(case));
            assert_same(&got, &want, &format!("{desc} {case} --jobs 4"));
        }
    }
}

#[test]
fn journaled_runs_match_jobs_1() {
    for (desc, data) in DESCRIPTIONS.into_iter().filter(|(d, _)| *d != "sirius") {
        for (case, args) in CASES.into_iter().filter(|(c, _)| JOURNAL_CASES.contains(c)) {
            for jobs in ["1", "4"] {
                let wal = temp_dir().join(format!("{desc}-{case}-{jobs}.wal"));
                let _ = std::fs::remove_file(&wal);
                let wal = wal.to_str().expect("utf-8 temp path");
                let got = run(desc, data, args, &["--journal", wal, "--jobs", jobs]);
                let note = if jobs == "1" { "" } else { jobs_note(case) };
                let want = with_note(expected(desc, case), note);
                assert_same(&got, &want, &format!("{desc} {case} --journal --jobs {jobs}"));
            }
        }
    }
}

/// `--metrics=json` after a kill and `--resume`, and after resuming a run
/// that already finished (its last checkpoint is the final one), equals
/// the uninterrupted run's golden.
#[test]
fn journal_kill_then_resume_matches_the_metrics_golden() {
    for (desc, data) in DESCRIPTIONS.into_iter().filter(|(d, _)| *d != "sirius") {
        let golden = repo_root().join(format!("crates/pads-cli/tests/golden/metrics_{desc}_torture.json"));
        let golden = std::fs::read(&golden).expect("metrics golden exists");
        for jobs in ["1", "4"] {
            for (first, every) in [(&["--kill-after", "4"][..], "2"), (&[][..], "5")] {
                let wal = temp_dir().join(format!("{desc}-resume-{jobs}-{every}.wal"));
                let _ = std::fs::remove_file(&wal);
                let wal = wal.to_str().expect("utf-8 temp path");
                let journal = ["--journal", wal, "--jobs", jobs, "--checkpoint-records", every];
                let run = |extra: &[&str]| {
                    Command::new(env!("CARGO_BIN_EXE_pads"))
                        .current_dir(repo_root())
                        .args(["parse", &format!("descriptions/{desc}.pads"), data])
                        .args(journal)
                        .args(extra)
                        .output()
                        .expect("pads binary runs")
                };
                let first = run(first);
                assert!(first.status.code().is_some_and(|c| c == 0 || c == 2), "{first:?}");
                let out = run(&["--resume", "--metrics=json"]);
                assert_eq!(out.status.code(), Some(2), "{desc} --jobs {jobs}");
                assert_same(&out.stdout, &golden, &format!("{desc} resumed --jobs {jobs}/{every}"));
            }
        }
    }
}

/// Sources whose array adds checks of its own: each must report its
/// source-level error at every `--jobs`, and a journal must refuse it.
#[test]
fn source_level_checks_hold_at_every_jobs_and_journal_refuses_them() {
    let cases = [
        ("where", "r_t[]; } Pwhere { length <= 2; };", "where-clause violated"),
        ("size", "r_t[2]; };", "unconsumed data at end of source"),
    ];
    for (name, array, message) in cases {
        let descr = temp_dir().join(format!("{name}.pads"));
        let source =
            format!("Precord Pstruct r_t {{ Puint32 n; }};\nPsource Parray rs_t {{ {array}\n");
        std::fs::write(&descr, source).expect("write description");
        let data = temp_dir().join(format!("{name}.txt"));
        std::fs::write(&data, b"1\n2\n3\n").expect("write data");
        let pads = |extra: &[&str]| {
            Command::new(env!("CARGO_BIN_EXE_pads"))
                .arg("parse")
                .arg(&descr)
                .arg(&data)
                .args(extra)
                .output()
                .expect("pads binary runs")
        };
        for jobs in ["1", "2", "4"] {
            let out = pads(&["--jobs", jobs]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{name} --jobs {jobs}: {stderr}");
            assert!(stderr.contains(message), "{name} --jobs {jobs}: {stderr}");
            assert!(String::from_utf8_lossy(&out.stdout).contains(message), "{name} --jobs {jobs}");
        }
        let wal = temp_dir().join(format!("{name}.wal"));
        let out = pads(&["--journal", wal.to_str().expect("utf-8 temp path")]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name} --journal: {stderr}");
        assert!(stderr.contains("--journal requires a plain record-array source"), "{stderr}");
    }
}

/// A journal commits per record of a plain record array: a source with a
/// header is refused, at every `--jobs`, even though its records shard.
#[test]
fn journal_refuses_a_header_source() {
    for jobs in ["1", "4"] {
        let wal = temp_dir().join(format!("sirius-header-{jobs}.wal"));
        let wal = wal.to_str().expect("utf-8 temp path");
        let args = ["--journal", wal, "--jobs", jobs];
        let got = run("sirius", "tests/data/torture_sirius.txt", &["parse"], &args);
        let want = "exit: 1\n--- stdout\n--- stderr\n\
                    pads: --journal requires a plain record-array source\n";
        assert_same(&got, want.as_bytes(), &format!("sirius --journal --jobs {jobs}"));
    }
}

/// The outputs the benchmark compares across job counts, on generated
/// corpora of about a megabyte — many chunks per worker, where the bundled
/// torture corpora never reach a second chunk: a clean clf log, the same
/// log after a fault plan with an error budget that trips halfway under
/// `skip`, and a Sirius feed (a header, then records with syntax errors
/// and a sort violation). Exit status, stdout and stderr (the error
/// summary) of `parse --format report`, `parse --metrics=json` and
/// `accum` must be byte-identical at `--jobs 1`, 2 and 4.
#[test]
fn generated_corpora_print_the_same_at_every_jobs() {
    let dir = temp_dir();
    let clf = pads_gen::clf::generate(&pads_gen::ClfConfig {
        records: 11_000,
        seed: 5,
        ..Default::default()
    })
    .0;
    let faults = pads_runtime::FaultPlan {
        seed: 0x9E37_79B9,
        bit_flips: 1_100,
        deletions: 22,
        insertions: 22,
        truncate: false,
    };
    let faulty = faults.apply(&clf);
    let max_errs = halfway_errors(&faulty).to_string();
    let sirius = pads_gen::sirius::generate(&pads_gen::SiriusConfig {
        records: 6_000,
        seed: 5,
        ..Default::default()
    })
    .0;
    let corpora: [(&str, &str, &[u8], &[&str]); 3] = [
        ("clf", "clean", &clf, &[]),
        ("clf", "faulty", &faulty, &["--max-errs", &max_errs, "--on-overflow", "skip"]),
        ("sirius", "generated", &sirius, &[]),
    ];
    let cases: [&[&str]; 3] =
        [&["parse", "--format", "report"], &["parse", "--metrics=json"], &["accum"]];
    for (desc, name, bytes, flags) in corpora {
        assert!(bytes.len() > 900_000, "{desc} {name}: {} bytes", bytes.len());
        let path = dir.join(format!("{desc}-{name}.txt"));
        std::fs::write(&path, bytes).expect("write corpus");
        let data = path.to_str().expect("utf-8 temp path");
        for args in cases {
            let reference = run(desc, data, args, &[flags, &["--jobs", "1"]].concat());
            for jobs in ["2", "4"] {
                let got = run(desc, data, args, &[flags, &["--jobs", jobs]].concat());
                assert_same(&got, &reference, &format!("{desc} {name} {args:?} --jobs {jobs}"));
            }
        }
    }
}

/// The error tally after half the records of an unlimited clf parse: a
/// budget that trips about halfway through `data`.
fn halfway_errors(data: &[u8]) -> u64 {
    let schema = pads::descriptions::clf();
    let registry = pads::Registry::standard();
    let parser = pads::PadsParser::new(&schema, &registry);
    let mask = pads::Mask::all(pads::BaseMask::CheckAndSet);
    let records = data.iter().filter(|&&b| b == b'\n').count();
    let mut it = parser.records(data, "entry_t", &mask);
    for _ in (&mut it).take(records / 2) {}
    it.budget().errs.max(1)
}
