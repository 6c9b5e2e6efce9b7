#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for the `pads` CLI.

Run from the repository root:

    python3 perfbench/run.py --workload clf_weblog --seed 1 --seconds 20 --trace 0

The script builds the release `pads` binary and the `perfbench` helper,
generates the seeded corpus of one workload into a temporary directory
under `.bench_work/`, and then:

* with `--trace 0`, runs the CLI as a subprocess in a closed loop (one
  command at a time) for `--seconds` seconds, checks every output, and
  reports the end-to-end metrics;
* with `--trace 1`, runs the traced per-layer ladder pass in process (the
  `perfbench ladder` helper) plus the CLI memory runs, and reports the
  per-layer metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

WORKLOADS = ("clf_weblog", "sirius_orders", "clf_faulty")

# End-to-end metrics (--trace 0): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "parse_mibps": "MiB/s",
    "parse_peak_rss_mb": "MB",
    "parse_par_mibps": "MiB/s",
    "parse_par_peak_rss_mb": "MB",
    "parse_cpu_ratio": "ratio",
    "metrics_par_mibps": "MiB/s",
    "accum_mibps": "MiB/s",
    "fmt_mibps": "MiB/s",
    "ops_ok_ratio": "ratio",
}

# Per-layer metrics (--trace 1): name -> unit. All but the two `value.rss_*`
# figures come from the in-process ladder pass.
PER_LAYER = {
    "check.compile_ms": "ms",
    "vm.cold_ms": "ms",
    "vm.select_ms": "ms",
    "vm.vet_ms": "ms",
    "scan.frame_ms": "ms",
    "scan.records": "count",
    "interp.select_ms": "ms",
    "interp.vet_ms": "ms",
    "interp.constraint_share": "ratio",
    "interp.errors": "count",
    "interp.bad_records": "count",
    "generated.vet_ms": "ms",
    "value.whole_tree_ms": "ms",
    "value.rss_per_input": "MB/MiB",
    "value.rss_growth_4x": "ratio",
    "batch.build_ms": "ms",
    "par.plan_ms": "ms",
    "par.shards": "count",
    "par.imbalance": "ratio",
    "par.batched_ms": "ms",
    "par.speedup": "ratio",
    "acc.rowwise_ms": "ms",
    "acc.columnar_ms": "ms",
    "fmt.format_ms": "ms",
    "observe.metrics_overhead": "ratio",
    "observe.par_metrics_overhead": "ratio",
    "trace.overhead_ratio": "ratio",
}

# One-record parses timed per measuring round, for `setup_s`.
SETUP_REPEATS = 15
# End-to-end timings are reported at the host speed where one run of the
# `perfbench calib` kernel takes this long, about its time in a quiet
# stretch of a shared 2-vCPU Xeon.
REF_CALIB_S = 0.020
# A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 120
ERROR_SUMMARY = re.compile(rb"^pads: \d+ error\(s\) in .*$", re.M)
BAD_RECORDS = re.compile(rb"^pads: (\d+) bad record\(s\) in ", re.M)
MIB = 1024.0 * 1024.0


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class Fatal(Exception):
    """A failure of the benchmark itself (build, set-up): no result."""


def build(target_dir):
    """Builds the release CLI and the helper; returns their paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for argv in (
        ["cargo", "build", "--release", "-q", "-p", "pads-cli"],
        ["cargo", "build", "--release", "-q", "--manifest-path",
         os.path.join(BENCH_DIR, "Cargo.toml")],
    ):
        try:
            done = subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise Fatal(f"{' '.join(argv)}: {e}") from e
        if done.returncode != 0:
            raise Fatal(f"{' '.join(argv)} exited {done.returncode}")
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "pads"), os.path.join(release, "perfbench")


class Run:
    """One finished child process: exit, wall, CPU and peak RSS."""

    def __init__(self, argv, out, err, status, wall, rusage):
        self.argv = argv
        self.out_path = out
        self.err_path = err
        self.signaled = os.WIFSIGNALED(status)
        self.code = os.WEXITSTATUS(status) if os.WIFEXITED(status) else None
        self.wall = wall
        self.cpu = rusage.ru_utime + rusage.ru_stime
        # ru_maxrss is in KiB on Linux.
        self.rss_mb = rusage.ru_maxrss * 1024.0 / 1e6

    def stdout(self):
        with open(self.out_path, "rb") as f:
            return f.read()

    def stderr(self):
        with open(self.err_path, "rb") as f:
            return f.read()


def pinned_spawn(cpus, spawner, *args, **kwargs):
    """Starts a child whose affinity is `cpus` (None: ours), which it
    inherits from us at spawn time."""
    if cpus is None:
        return spawner(*args, **kwargs)
    ours = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        return spawner(*args, **kwargs)
    finally:
        os.sched_setaffinity(0, ours)


def spawn(argv, out, err, cpus=None):
    """Runs `argv` to completion with stdout/stderr in files; a closed loop
    of one client, so nothing else of ours runs meanwhile."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644),
    ]
    t0 = time.perf_counter()
    pid = pinned_spawn(cpus, os.posix_spawn, argv[0], argv, os.environ, file_actions=actions)
    timer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, rusage = os.wait4(pid, 0)
    finally:
        timer.cancel()
    return Run(argv, out, err, status, time.perf_counter() - t0, rusage)


class Ledger:
    """Counts CLI invocations attempted and those whose checks failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def judge(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            log(f"FAILED {what}: {'; '.join(problems)}")


def exit_problems(run, expected):
    if run.signaled:
        return [f"killed by a signal ({' '.join(run.argv[1:])})"]
    if run.code not in expected:
        return [f"exit {run.code}, expected {sorted(expected)}"]
    return []


def error_summary(run):
    return ERROR_SUMMARY.findall(run.stderr())


def bad_records(run):
    m = BAD_RECORDS.search(run.stderr())
    return int(m.group(1)) if m else 0


class Workload:
    """A generated corpus plus the commands and checks over it."""

    def __init__(self, name, pads, work, truth, cpus, corrupt):
        self.name = name
        self.pads = pads
        self.work = work
        self.truth = truth
        self.cpus = frozenset(cpus)
        self.jobs = len(cpus)
        # Single-threaded commands run on this one vCPU, so that the kernel
        # that gauges their host speed sees the same vCPU.
        self.pin = frozenset({min(cpus)})
        self.corrupt = corrupt
        self.desc = os.path.join(work, "desc.pads")
        self.data = os.path.join(work, "data.log")
        self.mib = truth["input_bytes"] / MIB
        self.extra = []
        if truth["max_errs"] is not None:
            self.extra = ["--max-errs", str(truth["max_errs"]), "--on-overflow", "skip"]
        dirty = truth["max_errs"] is not None or truth["bad_records"] > 0
        self.data_exit = {2} if dirty else {0}

    def cli(self, tag, *args, data=None, threads=1):
        argv = [self.pads, args[0], self.desc, data or self.data, *args[1:], *self.extra]
        out = os.path.join(self.work, tag + ".out")
        err = os.path.join(self.work, tag + ".err")
        return spawn(argv, out, err, self.pin if threads == 1 else None)

    def tamper(self, kind, run):
        """Test hook: corrupts one output before it is checked."""
        if self.corrupt == kind:
            with open(run.out_path, "ab") as f:
                f.write(b"corrupted\n")

    def parse(self, jobs, *more, data=None, tag=None):
        tag = tag or f"parse_j{jobs}"
        return self.cli(tag, "parse", "--format", "none", "--jobs", str(jobs), *more, data=data,
                        threads=jobs)

    def check_parse(self, ledger, run, reference):
        problems = exit_problems(run, self.data_exit)
        if reference is not None:
            if run.code != reference.code:
                problems.append(f"exit {run.code} differs from jobs 1 ({reference.code})")
            if error_summary(run) != error_summary(reference):
                problems.append("error summary differs from jobs 1")
        ledger.judge(f"{self.name} {' '.join(run.argv[1:])}", problems)

    def check_metrics(self, ledger, run, reference):
        self.tamper("metrics", run)
        problems = exit_problems(run, self.data_exit)
        try:
            doc = json.loads(run.stdout())
            if doc.get("records") != self.truth["source_records"]:
                problems.append(
                    f"metrics count {doc.get('records')} records, "
                    f"framed {self.truth['source_records']}")
        except ValueError as e:
            problems.append(f"--metrics=json output is not JSON: {e}")
        if error_summary(run) != error_summary(reference):
            problems.append("error summary differs from jobs 1")
        ledger.judge(f"{self.name} {' '.join(run.argv[1:])}", problems)

    def check_accum(self, ledger, run, reference):
        if reference is not None:
            self.tamper("accum", run)
        problems = exit_problems(run, self.data_exit)
        want = self.truth["bad_records"]
        if want is not None and bad_records(run) != want:
            problems.append(f"accum counts {bad_records(run)} bad records, generator {want}")
        if reference is not None and (run.stdout() != reference.stdout()
                                      or bad_records(run) != bad_records(reference)):
            problems.append("accum report differs from jobs 1")
        ledger.judge(f"{self.name} {' '.join(run.argv[1:])}", problems)

    def check_fmt(self, ledger, run):
        self.tamper("fmt", run)
        problems = exit_problems(run, {0})
        out = run.stdout()
        lines = out.count(b"\n")
        framed = self.truth["framed_records"]
        if lines != framed or (out and not out.endswith(b"\n")):
            problems.append(f"fmt wrote {lines} lines for {framed} framed records")
        ledger.judge(f"{self.name} {' '.join(run.argv[1:])}", problems)


class Gauge:
    """Servers of `perfbench calib`, one pinned to each of our vCPUs, each
    timing a fixed reference kernel on demand. The speed of a vCPU drifts on
    a shared machine. A command's time divided by its host factor is its
    time at reference speed; the host factor of a vCPU is the mean kernel
    time on it just before and just after the command, over `REF_CALIB_S`,
    and a command's host factor is the mean over the vCPUs it runs on."""

    def __init__(self, helper, w):
        self.err = open(os.path.join(w.work, "calib.err"), "wb")
        self.servers = {}
        self.last = {}
        try:
            for cpu in sorted(w.cpus):
                self.servers[cpu] = pinned_spawn(
                    {cpu}, subprocess.Popen, [helper, "calib"], stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE, stderr=self.err, text=True)
            for cpu in self.servers:
                self.sample(cpu)
        except (OSError, Fatal) as e:
            self.close()
            raise Fatal(f"calibration server: {e}") from e

    def sample(self, cpu):
        server = self.servers[cpu]
        server.stdin.write("\n")
        server.stdin.flush()
        line = server.stdout.readline()
        if not line:
            raise Fatal("a calibration server ended early")
        self.last[cpu] = float(line)

    def factor(self, cpus, then=frozenset()):
        """Closes the command that ran on `cpus` since their last samples and
        returns its host factor; then samples the vCPUs of `then` that were
        not sampled just now, so that the next command starts fresh."""
        before = {cpu: self.last[cpu] for cpu in cpus}
        for cpu in sorted(cpus | then):
            self.sample(cpu)
        return statistics.fmean(before[c] + self.last[c] for c in cpus) / 2 / REF_CALIB_S

    def close(self):
        for server in self.servers.values():
            try:
                server.stdin.close()
            except OSError:
                pass
            try:
                server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
            server.stdout.close()
        self.err.close()


def end_to_end(w, helper, seconds, ledger):
    """Closed-loop CLI rounds for `seconds`; medians of the per-round
    figures, each command's time scaled to reference host speed."""
    prefix = os.path.join(w.work, "prefix1.log")
    setup, rows, raw = [], [], []
    accum_par_checked = False
    gauge = Gauge(helper, w)
    one, every = w.pin, w.cpus
    try:
        start = time.perf_counter()
        while not rows or time.perf_counter() - start < seconds:
            block = []
            for _ in range(SETUP_REPEATS):
                r = w.parse(1, data=prefix, tag="setup")
                ledger.judge(f"{w.name} setup parse", exit_problems(r, {0, 2}))
                block.append(r.wall)
            f = gauge.factor(one)
            setup.extend(t / f for t in block)
            j1 = w.parse(1)
            f_j1 = gauge.factor(one, then=every)
            w.check_parse(ledger, j1, None)
            jn = w.parse(w.jobs)
            f_jn = gauge.factor(every)
            w.check_parse(ledger, jn, j1)
            met = w.parse(w.jobs, "--metrics=json", tag="metrics")
            f_met = gauge.factor(every)
            w.check_metrics(ledger, met, j1)
            acc = w.cli("accum_j1", "accum", "--jobs", "1")
            f_acc = gauge.factor(one)
            w.check_accum(ledger, acc, None)
            if not accum_par_checked:
                acc_n = w.cli("accum_jn", "accum", "--jobs", str(w.jobs), threads=w.jobs)
                w.check_accum(ledger, acc_n, acc)
                accum_par_checked = True
                gauge.factor(every)  # untimed; fresh samples for `fmt`
            fmt = w.cli("fmt", "fmt")
            f_fmt = gauge.factor(one)
            w.check_fmt(ledger, fmt)
            rows.append({
                "parse_mibps": w.mib * f_j1 / j1.wall,
                "parse_peak_rss_mb": j1.rss_mb,
                "parse_par_mibps": w.mib * f_jn / jn.wall,
                "parse_par_peak_rss_mb": jn.rss_mb,
                "parse_cpu_ratio": (jn.cpu / f_jn) / (j1.cpu / f_j1),
                "metrics_par_mibps": w.mib * f_met / met.wall,
                "accum_mibps": w.mib * f_acc / acc.wall,
                "fmt_mibps": w.mib * f_fmt / fmt.wall,
            })
            raw.append({"host_factor": f_j1, "parse_mibps": w.mib / j1.wall,
                        "parse_par_mibps": w.mib / jn.wall, "accum_mibps": w.mib / acc.wall,
                        "fmt_mibps": w.mib / fmt.wall})
    finally:
        gauge.close()
    log(f"{w.name}: {len(rows)} round(s), {len(setup)} set-up parses, jobs N = {w.jobs}")
    log("unscaled medians: " + ", ".join(
        f"{k} {statistics.median(r[k] for r in raw):.4g}" for k in raw[0]))
    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    metrics["setup_s"] = statistics.median(setup)
    metrics["ops_ok_ratio"] = (ledger.attempted - ledger.failed) / ledger.attempted
    return metrics, END_TO_END


def per_layer(w, helper, seconds, ledger):
    """The traced in-process ladder pass plus the CLI memory runs."""
    argv = [helper, "ladder", "--workload", w.name, "--dir", w.work,
            "--seconds", str(seconds), "--jobs", str(w.jobs)]
    if w.truth["max_errs"] is not None:
        argv += ["--max-errs", str(w.truth["max_errs"])]
    r = spawn(argv, os.path.join(w.work, "ladder.out"), os.path.join(w.work, "ladder.err"))
    sys.stderr.write(r.stderr().decode("utf-8", "replace"))
    if exit_problems(r, {0}):
        raise Fatal(f"ladder pass failed: {' '.join(exit_problems(r, {0}))}")
    layers = json.loads(r.stdout())
    problems = []
    if layers["scan.records"] != w.truth["framed_records"]:
        problems.append(f"scan counts {layers['scan.records']} records, "
                        f"generator framed {w.truth['framed_records']}")
    want = w.truth["bad_records"]
    if want is not None and layers["interp.bad_records"] != want:
        problems.append(f"interp counts {layers['interp.bad_records']} bad records, "
                        f"generator {want}")
    ledger.judge(f"{w.name} ladder", problems)

    full = w.parse(1)
    w.check_parse(ledger, full, None)
    quarter = w.parse(1, data=os.path.join(w.work, "quarter.log"), tag="quarter")
    ledger.judge(f"{w.name} quarter parse", exit_problems(quarter, {0, 2}))
    layers["value.rss_per_input"] = full.rss_mb / w.mib
    layers["value.rss_growth_4x"] = full.rss_mb / quarter.rss_mb
    return layers, PER_LAYER


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--records", type=int,
                    help="corpus size in records (default: the workload's own)")
    ap.add_argument("--corrupt", choices=("fmt", "metrics", "accum"),
                    help="test hook: corrupt one output before it is checked")
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    work_root = os.path.join(ROOT, ".bench_work")
    work = None
    try:
        pads, helper = build(target)
        os.makedirs(work_root, exist_ok=True)
        work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
        gen = [helper, "gen", "--workload", args.workload, "--seed", str(args.seed),
               "--dir", work]
        if args.records:
            gen += ["--records", str(args.records)]
        if subprocess.run(gen, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S).returncode != 0:
            raise Fatal("corpus generation failed")
        with open(os.path.join(work, "truth.json")) as f:
            truth = json.load(f)
        w = Workload(args.workload, pads, work, truth, os.sched_getaffinity(0), args.corrupt)
        ledger = Ledger()
        if args.trace:
            metrics, units = per_layer(w, helper, args.seconds, ledger)
            spans = os.path.join(work_root, f"spans-{args.workload}-seed{args.seed}.jsonl")
            shutil.copyfile(os.path.join(work, "spans.jsonl"), spans)
            log(f"spans written to {os.path.relpath(spans, ROOT)}")
        else:
            metrics, units = end_to_end(w, helper, args.seconds, ledger)
    except (Fatal, subprocess.TimeoutExpired) as e:
        log(str(e))
        return 1
    finally:
        if work:
            shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
