//! Golden metric snapshots: `pads parse --metrics=json` over each bundled
//! description and its torture corpus must reproduce the checked-in counts
//! byte-for-byte. The format is counts-only (no timings), so the snapshot
//! is fully deterministic; any drift in parsing, error classification, or
//! event emission shows up as a diff here.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! cargo build -p pads-cli
//! ./target/debug/pads parse descriptions/<d>.pads tests/data/torture_<d>.* \
//!     --metrics=json > crates/pads-cli/tests/golden/metrics_<d>_torture.json
//! ```

use std::path::Path;
use std::process::Command;

/// Exit status for "the data had errors but the run completed".
const EXIT_DATA_ERRORS: i32 = 2;

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

fn run_parse(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_pads"))
        .current_dir(repo_root())
        .arg("parse")
        .args(args)
        .output()
        .expect("pads binary runs")
}

#[test]
fn metrics_json_matches_golden_snapshots() {
    let cases = [
        ("clf", "tests/data/torture_clf.log"),
        ("sirius", "tests/data/torture_sirius.txt"),
        ("mixed", "tests/data/torture_mixed.txt"),
    ];
    for (name, data) in cases {
        let out = run_parse(&[
            &format!("descriptions/{name}.pads"),
            data,
            "--metrics=json",
        ]);
        assert_eq!(
            out.status.code(),
            Some(EXIT_DATA_ERRORS),
            "{name}: torture corpus must complete with data errors\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let got = String::from_utf8(out.stdout).expect("utf-8 metrics");
        let golden_path =
            repo_root().join(format!("crates/pads-cli/tests/golden/metrics_{name}_torture.json"));
        let want = std::fs::read_to_string(&golden_path).expect("golden snapshot exists");
        assert_eq!(
            got, want,
            "{name}: metrics drifted from {}; regenerate if intentional",
            golden_path.display()
        );
    }
}

/// `--trace` and `--metrics=prom|json` must work (and not disturb the exit
/// code) on every description in `descriptions/`.
#[test]
fn trace_and_metrics_work_on_every_description() {
    let cases = [
        ("clf", "tests/data/torture_clf.log"),
        ("sirius", "tests/data/torture_sirius.txt"),
        ("mixed", "tests/data/torture_mixed.txt"),
    ];
    let mut described = 0;
    for entry in std::fs::read_dir(repo_root().join("descriptions")).expect("descriptions/") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("pads") {
            continue;
        }
        described += 1;
        let stem = path.file_stem().and_then(|s| s.to_str()).expect("stem");
        let (_, data) = cases
            .iter()
            .find(|(n, _)| *n == stem)
            .unwrap_or_else(|| panic!("no torture corpus for descriptions/{stem}.pads"));
        let descr = format!("descriptions/{stem}.pads");
        for flags in [
            &["--trace"][..],
            &["--trace=json"][..],
            &["--metrics=prom"][..],
            &["--metrics=json"][..],
            &["--trace=json", "--metrics=json"][..],
        ] {
            let mut args = vec![descr.as_str(), data];
            args.extend_from_slice(flags);
            let out = run_parse(&args);
            assert_eq!(
                out.status.code(),
                Some(EXIT_DATA_ERRORS),
                "{stem} {flags:?}: unexpected exit\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(
                !out.stdout.is_empty(),
                "{stem} {flags:?}: produced no output"
            );
        }
        // Prometheus exposition carries the family headers.
        let out = run_parse(&[&descr, data, "--metrics=prom"]);
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        assert!(text.contains("# TYPE pads_records_total counter"), "{stem}: {text}");
        assert!(text.contains("pads_type_hits_total"), "{stem}");
    }
    assert_eq!(described, 3, "bundled description inventory changed");
}

/// The value of the unlabelled Prometheus sample `family` in `text`.
fn prom_value(text: &str, family: &str) -> u64 {
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix(family)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no `{family}` sample in:\n{text}"));
    line.parse().unwrap_or_else(|_| panic!("numeric `{family}`: {line:?}"))
}

/// Worker cores hand their latency samples to the merge, so the latency
/// summary counts every record at any `--jobs`.
#[test]
fn latency_count_is_the_same_at_every_job_count() {
    let mut counts = Vec::new();
    for jobs in ["1", "2", "4"] {
        let out = run_parse(&[
            "descriptions/clf.pads",
            "tests/data/torture_clf.log",
            "--metrics",
            "--jobs",
            jobs,
        ]);
        assert_eq!(out.status.code(), Some(EXIT_DATA_ERRORS));
        let text = String::from_utf8(out.stdout).expect("utf-8 metrics");
        let records = prom_value(&text, "pads_records_total");
        let latency = prom_value(&text, "pads_record_latency_seconds_count");
        assert_eq!(latency, records, "--jobs {jobs}: latency count vs records\n{text}");
        counts.push(latency);
    }
    assert!(counts.iter().all(|&n| n == counts[0] && n > 0), "{counts:?}");
}
