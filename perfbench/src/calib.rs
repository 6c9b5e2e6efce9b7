//! A fixed reference workload that gauges how fast the host runs right now.
//!
//! On a shared machine the speed of a vCPU drifts (a busy sibling
//! hyper-thread, cache and memory pressure from neighbours, steal), and every
//! wall-clock figure of a run drifts with it. `run.py` times this kernel
//! just before and just after each CLI command and scales the command's
//! time by the kernel's, which cancels the drift they share.
//!
//! The kernel uses no code of the repository, so no change to the program
//! can move it. Like a parse that keeps its values, it splits CLF-like lines
//! into fields, folds the digits of each field, and keeps every field of
//! every line in its own heap buffer until the pass ends.

use std::hint::black_box;
use std::io::{self, BufRead, Write};
use std::time::Instant;

/// Size of the reference text; the values kept from it span several MB.
const TEXT_BYTES: usize = 1 << 20;

/// Passes over the text per timed sample (about 20 ms on a 2-vCPU Xeon).
const PASSES: usize = 2;

/// Serves timing samples: for each line read from standard input it runs
/// the kernel once and writes the elapsed seconds as one line. It ends at
/// the end of its input.
pub fn serve() -> Result<(), String> {
    let text = reference_text();
    let mut out = io::stdout().lock();
    for line in io::stdin().lock().lines() {
        line.map_err(|e| format!("calib: {e}"))?;
        let t0 = Instant::now();
        black_box(kernel(black_box(&text)));
        let secs = t0.elapsed().as_secs_f64();
        writeln!(out, "{secs:.9}")
            .and_then(|()| out.flush())
            .map_err(|e| format!("calib: {e}"))?;
    }
    Ok(())
}

/// Deterministic CLF-like lines from a fixed linear congruential generator.
fn reference_text() -> Vec<u8> {
    const PATHS: [&str; 6] = ["/", "/index.html", "/img/a.gif", "/cgi-bin/q", "/docs/x", "/a/b/c"];
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let mut text = Vec::with_capacity(TEXT_BYTES + 256);
    while text.len() < TEXT_BYTES {
        let r = next();
        let line = format!(
            "{}.{}.{}.{} - - [{:02}/Oct/1997:{:02}:{:02}:{:02} -0700] \"GET {} HTTP/1.0\" {} {}\n",
            r % 256,
            (r >> 8) % 256,
            next() % 256,
            next() % 256,
            1 + r % 28,
            r % 24,
            next() % 60,
            next() % 60,
            PATHS[(r % 6) as usize],
            [200, 304, 404][(r % 3) as usize],
            next() % 100_000,
        );
        text.extend_from_slice(line.as_bytes());
    }
    text
}

/// One timed sample; returns a checksum so the work cannot be elided.
fn kernel(text: &[u8]) -> u64 {
    let mut kept: Vec<Vec<Box<[u8]>>> = Vec::new();
    let mut sum = 0u64;
    for _ in 0..PASSES {
        kept.clear();
        for line in text.split(|&b| b == b'\n') {
            let mut fields = Vec::new();
            for field in line.split(|&b| b == b' ') {
                let mut num = 0u64;
                for &b in field {
                    if b.is_ascii_digit() {
                        num = num.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
                    }
                }
                sum = sum.wrapping_add(num);
                fields.push(Box::from(field));
            }
            kept.push(fields);
        }
        sum = sum.wrapping_add(kept.iter().map(|f| f.len() as u64).sum::<u64>());
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_fixed() {
        let text = reference_text();
        assert!(text.len() >= TEXT_BYTES && text.ends_with(b"\n"));
        assert_eq!(text, reference_text());
        assert_eq!(kernel(&text), kernel(&text));
    }
}
