#!/usr/bin/env python3
"""End-to-end benchmark of kanon_cli and kanond, with a per-layer ledger.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --steady N --workload NAME [--seconds S] [--trace 0|1]

Run from the repository root. The first run builds kanon_cli, kanond,
kanon_gendata and the two benchmark drivers (layer_probe, serve_driver) into
.bench_build/ from source; later runs reuse that build.

--trace 0 times the real binaries with nothing but the clock around them and
prints the end-to-end metrics of BENCHMARK.json. --trace 1 is the separate
traced run: it times each public library call from the benchmark's own code
(layer_probe, serve_driver) and prints the per-layer metrics, the
unattributed remainder and the tracing overhead. Every output is checked in
both modes; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"} and the exit code is 1 when any
operation failed.

--steady N runs one workload N times with seeds 1..N and prints each
metric's median and interquartile spread next to its bound.

Inputs come from kanon_gendata (the `datasets` generators), seeded from
--seed; the programs see only the generated CSV and spec files.
"""

import argparse
import concurrent.futures
import json
import math
import os
import re
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
TOOLS = os.path.join(BUILD, "kanon", "tools")

# Every job of every workload uses method agglomerative (kanon_cli's default
# distance, the EM measure) and one engine thread: on a shared VM, two
# threads made the agglomerative job 36% slower and three times noisier, for
# a speedup of 0.99. The traced run still times the engine at two threads
# (algo.speedup). kanon_cli verifies k-anonymity before it writes.
# layer_probe and serve_driver hold the same method and thread count.
METHOD = "agglomerative"
THREADS = 1

# Why each workload exists is recorded in BENCHMARK.json. A batch run cycles
# over several tables of one seed, so that no single table's data-dependent
# cost decides the run's figures.
WORKLOADS = {
    "art-agglomerative": {"kind": "batch", "rows": 4000, "tables": 6,
                          "k": 10},
    "serve-small-jobs": {"kind": "serve", "rows": 500, "k": 5,
                         "clients": 3, "workers": 2},
}
# Set-up samples: kanon_cli-style set-up rounds per batch round. A serve
# run is cut into segments of load, and kanond is launched a few times
# before the first segment and after each one, so that its set-up samples
# span the run as the batch ones do. Host contention comes in bursts that
# slow every launch of a gap, so many short gaps give a steadier median than
# a few long ones. The first launch of each gap is not timed: after a pause
# it took two to three times as long as the rest.
SETUP_REPS = 3
SERVE_SEGMENTS = 10
LAUNCHES_PER_GAP = 6
# kanon_cli's summary line on stderr: "... loss(EM) = 1.0524, 1.91s; ...".
LOSS_LINE = re.compile(r"loss\(EM\) = ([0-9.]+)")
# The serve run's cold pool: generated tables that the client cycles
# through. kanond's loss cache holds four entries and evicts the oldest, so
# between two submits of one cold table seven others evict it: every cold
# submit misses the loss cache as a table never seen would.
COLD_TABLES = 8
# The ROADMAP target: at most 5% of a job's wall time outside the timed layers.
UNATTRIBUTED_LIMIT = 0.05


class Ledger:
    """Counts attempted and failed operations and keeps the failures.

    A wrong output byte, a CLI exit code other than 0 or an error reply
    also makes the run incorrect. An input pair the program rejects in
    pre-flight (wrong=False) is a failed operation that leaves the run
    correct: the pair is never run, so nothing wrong was produced."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.correct = True

    def ok(self, count=1):
        self.attempted += count

    def fail(self, message, wrong=True):
        self.attempted += 1
        self.failures.append(message)
        self.correct = self.correct and not wrong
        print(f"# FAILED: {message}")


median = statistics.median


def p95(values):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]


# --------------------------------------------------------------------------
# Build and processes


def build():
    for needed in ("CMakeLists.txt", "src/kanon", "tools/kanon_cli.cc"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"e2ebench: {needed} not found under {ROOT}; run from a "
                     "full checkout of the repository")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as out:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", "4"])
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.exit("e2ebench: build failed")


def tool(name):
    if name in ("layer_probe", "serve_driver"):
        return os.path.join(BUILD, name)
    return os.path.join(TOOLS, name)


def timed_process(argv, stdout_path, timeout=150):
    """Runs argv; returns (exit code, wall seconds, ru_maxrss in KiB)."""
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def run_json(argv, timeout=170):
    done = subprocess.run(argv, capture_output=True, text=True,
                          timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"{os.path.basename(argv[0])} exited "
                           f"{done.returncode}: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def gendata(work, rows, seeds):
    """One ART table and spec per seed, four generators at a time."""

    def one(seed):
        csv = os.path.join(work, f"art{seed}.csv")
        spec = os.path.join(work, f"art{seed}.spec")
        subprocess.run([tool("kanon_gendata"), "--dataset=art",
                        f"--rows={rows}", f"--seed={seed}", f"--output={csv}",
                        f"--spec-out={spec}"],
                       check=True, capture_output=True, timeout=60)
        return csv, spec

    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        return list(pool.map(one, seeds))


def preflight(work, pairs, ledger):
    """Loads every (csv, spec) pair through the library's readers. A pair
    the program rejects is a failed operation and is left out of the run;
    it is never re-seeded or resized."""
    listing = os.path.join(work, "preflight.tsv")
    with open(listing, "w") as f:
        for csv, spec in pairs:
            f.write(f"{csv}\t{spec}\n")
    result = run_json([tool("layer_probe"), f"--preflight={listing}"])
    rejected = {entry["csv"]: entry["error"] for entry in result["rejected"]}
    kept = []
    for csv, spec in pairs:
        if csv in rejected:
            ledger.fail(f"pre-flight rejected {os.path.basename(csv)}: "
                        f"{rejected[csv]}", wrong=False)
        else:
            ledger.ok()
            kept.append((csv, spec))
    return kept


# --------------------------------------------------------------------------
# Batch workloads: kanon_cli processes


def cli_argv(w, csv, spec, out):
    return [tool("kanon_cli"), f"--input={csv}", f"--spec={spec}",
            f"--k={w['k']}", f"--method={METHOD}", f"--threads={THREADS}",
            f"--output={out}"]


def probe_argv(w, csv, spec, out, extras=False):
    argv = [tool("layer_probe"), f"--input={csv}", f"--spec={spec}",
            f"--k={w['k']}", f"--output={out}"]
    return argv + ["--extras"] if extras else argv


def probe_metrics(result, output):
    """The algo.*, anonymity.distinct_row_frac and graph.* metrics of one
    `--extras` layer_probe run and of its output bytes. The job ran at one
    thread, so algo.anonymize_1t_s is its engine time, and algo.speedup is
    that over the engine time at two threads."""
    counters = result["counters"]
    metrics = {name: (value, "count") for name, value in counters.items()}
    lookups = counters["algo.closure_hits"] + counters["algo.closure_misses"]
    metrics["algo.closure_hit_rate"] = (
        counters["algo.closure_hits"] / lookups if lookups else 0.0,
        "fraction")
    one = result["layers"]["algo.anonymize_s"]
    metrics["algo.anonymize_1t_s"] = (one, "s")
    metrics["algo.speedup"] = (one / result["extras"]["algo.anonymize_2t_s"],
                               "x")
    rows = output.decode().splitlines()[1:]
    metrics["anonymity.distinct_row_frac"] = (len(set(rows)) / len(rows),
                                              "fraction")
    for name, unit in (("graph.build_s", "s"), ("graph.matchable_s", "s"),
                       ("graph.edges", "count")):
        metrics[name] = (result["extras"][name], unit)
    return metrics


def batch_tables(w, args, work, ledger):
    """The workload's tables for this seed, each pre-flighted."""
    pairs = gendata(work, w["rows"],
                    [args.seed * 1000 + t for t in range(w["tables"])])
    return preflight(work, pairs, ledger)


def setup_samples(csv, spec):
    return run_json([tool("layer_probe"), f"--setup-reps={SETUP_REPS}",
                     f"--input={csv}", f"--spec={spec}"])["setup_s"]


def run_job(argv, out, ledger, what):
    """Runs one job; returns (wall, ru_maxrss KiB, output bytes, stderr) or
    None when it failed."""
    code, wall, rss = timed_process(argv, out + ".stdout")
    stderr = read_bytes(out + ".stdout.err").decode(errors="replace")
    if code != 0:
        ledger.fail(f"{what} exited {code}: {stderr[-300:]}")
        return None
    return wall, rss, read_bytes(out), stderr


def same_bytes(expected, key, data, ledger, what):
    """The first output for `key` becomes the reference; every later one
    must repeat it byte for byte."""
    if expected.setdefault(key, data) == data:
        ledger.ok()
        return True
    ledger.fail(f"{what} output differs from the reference bytes")
    return False


def batch_loop(tables, seconds, step):
    """Runs rounds of step(round, table index) over every table until the
    run has used about `seconds`: a new round starts only when half of the
    last one still fits. Returns elapsed seconds."""
    start = time.perf_counter()
    last, r = 0.0, 0
    while r == 0 or time.perf_counter() - start + last / 2 < seconds:
        t0 = time.perf_counter()
        for t in range(len(tables)):
            step(r, t)
        last = time.perf_counter() - t0
        r += 1
    return time.perf_counter() - start


def batch_untraced(w, args, work, ledger):
    tables = batch_tables(w, args, work, ledger)
    if not tables:
        return None, {}
    setup, walls, rss, rows, outputs, losses = [], [], [], [0], {}, {}

    def step(r, t):
        csv, spec = tables[t]
        if t == 0:
            # Set-up is sampled once a round, so its median spans the run.
            setup.extend(setup_samples(*tables[r % len(tables)]))
        out = os.path.join(work, "cli.csv")
        job = run_job(cli_argv(w, csv, spec, out), out, ledger, "kanon_cli")
        if not job or not same_bytes(outputs, t, job[2], ledger,
                                     "kanon_cli"):
            return
        loss = LOSS_LINE.search(job[3])
        if loss is None:
            ledger.fail("kanon_cli printed no loss line")
            return
        losses[t] = float(loss.group(1))
        walls.append(job[0])
        rss.append(job[1])
        rows[0] += job[2].count(b"\n") - 1

    elapsed = batch_loop(tables, args.seconds, step)
    if not walls:
        return None, {}
    metrics = {
        "setup_s": (median(setup), "s"),
        "job_ms_mean": (statistics.fmean(walls) * 1e3, "ms"),
        "job_ms_p50": (median(walls) * 1e3, "ms"),
        "job_ms_p95": (p95(walls) * 1e3, "ms"),
        "rows_per_s": (rows[0] / elapsed, "rows/s"),
        "loss": (statistics.fmean(losses.values()), "EM"),
        "peak_rss_mb": (max(rss) / 1024.0, "MB"),
    }
    samples = {"setup_s": len(setup), "job_ms_mean": len(walls),
               "job_ms_p50": len(walls),
               "job_ms_p95": len(walls), "peak_rss_mb": len(rss),
               "loss": len(losses)}
    return metrics, samples


def batch_traced(w, args, work, ledger):
    tables = batch_tables(w, args, work, ledger)
    if not tables:
        return None, {}
    # In-process reference runs. On the first table they also time the
    # consistency graph of the output and the engine at two threads.
    outputs, ref = {}, None
    for t, (csv, spec) in enumerate(tables):
        out = os.path.join(work, f"ref{t}.csv")
        result = run_json(probe_argv(w, csv, spec, out, extras=t == 0))
        if result["degraded"]:
            ledger.fail(f"reference run on table {t} degraded")
        if t == 0:
            ref = result
            if not result["extras"]["identical_compare"]:
                ledger.fail("the table differs with the thread count")
        outputs[t] = read_bytes(out)
    probe_walls, layer_samples, unattributed, overhead = [], {}, [], []

    def step(r, t):
        # An untraced kanon_cli job, then the traced job on the same input:
        # their difference is the tracing overhead.
        csv, spec = tables[t]
        out = os.path.join(work, "cli.csv")
        plain = run_job(cli_argv(w, csv, spec, out), out, ledger, "kanon_cli")
        out = os.path.join(work, "probe.csv")
        job = run_job(probe_argv(w, csv, spec, out), out, ledger,
                      "layer_probe")
        if not plain or not job:
            return
        if not (same_bytes(outputs, t, plain[2], ledger, "kanon_cli") and
                same_bytes(outputs, t, job[2], ledger, "layer_probe")):
            return
        result = json.loads(read_bytes(out + ".stdout").splitlines()[-1])
        probe_walls.append(job[0])
        overhead.append(job[0] - plain[0])
        for name, value in result["layers"].items():
            layer_samples.setdefault(name, []).append(value)
        unattributed.append(job[0] - sum(result["layers"].values()))

    batch_loop(tables, args.seconds, step)
    if not probe_walls:
        return None, {}
    metrics = {name: (median(values), "s")
               for name, values in layer_samples.items()}
    metrics.update(probe_metrics(ref, outputs[0]))
    metrics["unattributed_s"] = (median(unattributed), "s")
    metrics["unattributed_frac"] = (
        median(u / wall for u, wall in zip(unattributed, probe_walls)),
        "fraction")
    metrics["tracing_overhead_ms"] = (median(overhead) * 1e3, "ms")
    # The serving layer on this workload's first table: one client, four
    # jobs (two verify and two attack queries), each waited for as
    # `kanond_client submit --wait` does.
    serve_metrics, serve_samples = serve_traced_layers(
        w, work, tables[:1], ledger, jobs=4, clients=1, workers=1,
        expected={0: outputs[0]})
    metrics.update(serve_metrics)
    samples = {"job_pairs": len(probe_walls), **serve_samples}
    return metrics, samples


# --------------------------------------------------------------------------
# Serve workload: kanond driven by serve_driver


def ping(port):
    with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
        payload = b'{"id":1,"method":"ping","params":{}}'
        s.sendall(struct.pack(">I", len(payload)) + payload)
        header = b""
        while len(header) < 4:
            chunk = s.recv(4 - len(header))
            if not chunk:
                raise RuntimeError("kanond closed the connection")
            header += chunk
        (length,) = struct.unpack(">I", header)
        body = b""
        while len(body) < length:
            chunk = s.recv(length - len(body))
            if not chunk:
                raise RuntimeError("kanond closed the connection")
            body += chunk
    if not json.loads(body).get("ok"):
        raise RuntimeError(f"ping failed: {body!r}")


class Kanond:
    """One kanond process; launch() returns seconds to its first ping."""

    def __init__(self, work, workers, tag):
        self.port_file = os.path.join(work, f"kanond-{tag}.port")
        self.argv = [tool("kanond"), "--port=0",
                     f"--port-file={self.port_file}", f"--workers={workers}",
                     f"--job-threads={THREADS}", "--drain-grace-ms=0"]
        self.err_path = os.path.join(work, f"kanond-{tag}.err")
        self.proc = None
        self.port = None

    def launch(self):
        err = open(self.err_path, "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(self.argv, stdout=subprocess.DEVNULL,
                                     stderr=err)
        err.close()
        while not os.path.exists(self.port_file):
            if self.proc.poll() is not None:
                raise RuntimeError(f"kanond exited {self.proc.returncode}")
            if time.perf_counter() - start > 30:
                raise RuntimeError("kanond did not announce its port")
            time.sleep(0.0002)
        with open(self.port_file) as f:
            self.port = int(f.read().strip())
        ping(self.port)
        return time.perf_counter() - start

    def stop(self):
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None
        if os.path.exists(self.port_file):
            os.remove(self.port_file)


def start_kanond(work, workers):
    server = Kanond(work, workers, "main")
    try:
        server.launch()
    except BaseException:
        server.stop()
        raise
    return server


def launch_samples(work, workers, tag):
    """Launches and stops kanond once untimed and then LAUNCHES_PER_GAP
    times; returns the seconds each timed launch took to answer its first
    ping."""
    times = []
    for i in range(1 + LAUNCHES_PER_GAP):
        server = Kanond(work, workers, f"{tag}-{i}")
        try:
            elapsed = server.launch()
        finally:
            server.stop()
        if i > 0:
            times.append(elapsed)
    return times


def drive(server, w, work, tables, tag, seconds, jobs, clients, trace,
          rss=False):
    listing = os.path.join(work, f"tables-{tag}.tsv")
    with open(listing, "w") as f:
        for csv, spec in tables:
            f.write(f"{csv}\t{spec}\n")
    fetched = os.path.join(work, f"fetched-{tag}")
    os.makedirs(fetched, exist_ok=True)
    out = os.path.join(work, f"driver-{tag}.json")
    argv = [tool("serve_driver"), f"--port={server.port}",
            f"--tables={listing}", f"--clients={clients}",
            f"--seconds={seconds}", f"--jobs={jobs}", f"--k={w['k']}",
            f"--fetched-dir={fetched}", f"--out={out}"]
    if trace:
        argv.append("--trace")
    if rss:
        # kanond's peak memory, read when the 50th job has been fetched.
        argv.append(f"--rss-pid={server.proc.pid}")
    subprocess.run(argv, check=True, timeout=170)
    with open(out) as f:
        result = json.load(f)
    result["fetched_dir"] = fetched
    return result


def check_driver(result, ledger):
    for failure in result["failures"]:
        ledger.fail(failure)
    ledger.ok(len(result["jobs"]) + len(result["queries"]))


def check_fetched(w, result, tables, ledger, expected=None):
    """Every distinct fetched table must equal kanon_cli's bytes for the
    same table, spec, k and method (the driver already checked that
    repeated fetches agree)."""
    work = os.path.dirname(result["fetched_dir"])

    def one(name):
        index = int(name[:-len(".csv")])
        got = read_bytes(os.path.join(result["fetched_dir"], name))
        if expected is not None:
            return name, got == expected[index]
        csv, spec = tables[index]
        out = os.path.join(work, f"truth-{os.getpid()}-{name}")
        if subprocess.run(cli_argv(w, csv, spec, out), capture_output=True,
                          timeout=120).returncode != 0:
            return name, False
        return name, read_bytes(out) == got

    names = sorted(os.listdir(result["fetched_dir"]))
    # One single-threaded kanon_cli per core of a 4-core machine.
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        for name, same in pool.map(one, names):
            if same:
                ledger.ok()
            else:
                ledger.fail(f"fetched table {name} differs from kanon_cli")


def serve_tables(w, args, work, ledger):
    """The run's tables, each generated from its own seed and pre-flighted:
    the first accepted one is the hot table, the others are the cold pool."""
    pairs = gendata(work, w["rows"],
                    [args.seed * 100000 + i for i in range(1 + COLD_TABLES)])
    kept = preflight(work, pairs, ledger)
    return kept if len(kept) > 1 else None


def loss_of(result):
    """Mean loss of every table the run published: the same tables in every
    run of a seed, however many jobs ran."""
    first = {}
    for job in result["jobs"]:
        first.setdefault(job["table"], job["loss"])
    return statistics.fmean(first.values())


def serve_untraced(w, args, work, ledger):
    tables = serve_tables(w, args, work, ledger)
    if tables is None:
        return None, {}
    launch_times = launch_samples(work, w["workers"], "gap0")
    server = start_kanond(work, w["workers"])
    results = []
    try:
        for s in range(SERVE_SEGMENTS):
            results.append(drive(server, w, work, tables, f"seg{s}",
                                 args.seconds / SERVE_SEGMENTS, 0,
                                 w["clients"], trace=False, rss=s == 0))
            launch_times += launch_samples(work, w["workers"], f"gap{s + 1}")
    finally:
        server.stop()
    jobs, queries, rows, elapsed = [], [], 0, 0.0
    for result in results:
        check_driver(result, ledger)
        check_fetched(w, result, tables, ledger)
        jobs += [j["job_ms"] for j in result["jobs"]]
        queries += [q["ms"] for q in result["queries"]]
        rows += sum(j["rows"] for j in result["jobs"])
        elapsed += result["elapsed_s"]
    if not jobs:
        return None, {}
    metrics = {
        "setup_s": (median(launch_times), "s"),
        "job_ms_mean": (statistics.fmean(jobs), "ms"),
        "job_ms_p50": (median(jobs), "ms"),
        "job_ms_p95": (p95(jobs), "ms"),
        "rows_per_s": (rows / elapsed, "rows/s"),
        "loss": (loss_of(results[0]), "EM"),
        "query_ms_p50": (median(queries), "ms"),
        "query_ms_p95": (p95(queries), "ms"),
    }
    peak = results[0]["peak_rss_mb"]
    if peak > 0:
        metrics["peak_rss_mb"] = (peak, "MB")
    samples = {"setup_s": len(launch_times), "job_ms_mean": len(jobs),
               "job_ms_p50": len(jobs),
               "job_ms_p95": len(jobs), "query_ms_p50": len(queries),
               "query_ms_p95": len(queries),
               "cold_tables": len(tables) - 1}
    return metrics, samples


def serve_layer_metrics(result):
    jobs = result["jobs"]
    before, after = result["server_before"], result["server_after"]

    def delta(name):
        return after[name] - before[name]

    def rate(prefix):
        hits, misses = delta(prefix + "_hits"), delta(prefix + "_misses")
        return hits / (hits + misses) if hits + misses else 0.0

    # serve.requests counts every call in the window plus the closing
    # `metrics` call; what remains after submits, fetches and queries is
    # WaitJob's polls.
    polls = (delta("serve.requests") - 1 - result["submits"] -
             result["fetches"] - len(result["queries"]))
    verify = [q["ms"] for q in result["queries"] if q["kind"] == "verify"]
    attack = [q["ms"] for q in result["queries"] if q["kind"] == "attack"]
    unattributed = [j["job_ms"] - j["submit_ms"] - j["wait_ms"] - j["fetch_ms"]
                    for j in jobs]
    metrics = {
        "serve.submit_ms": (median(j["submit_ms"] for j in jobs), "ms"),
        "serve.wait_ms": (median(j["wait_ms"] for j in jobs), "ms"),
        "serve.fetch_ms": (median(j["fetch_ms"] for j in jobs), "ms"),
        "serve.engine_ms": (median(j["engine_ms"] for j in jobs), "ms"),
        "serve.wait_overhead_ms": (
            median(j["wait_ms"] - j["engine_ms"] for j in jobs), "ms"),
        "serve.polls_per_job": (polls / len(jobs), "count"),
        "serve.verify_ms": (median(verify) if verify else 0.0, "ms"),
        "serve.attack_ms": (median(attack) if attack else 0.0, "ms"),
        "serve.scheme_cache_hit_rate": (rate("serve.scheme_cache"),
                                        "fraction"),
        "serve.loss_cache_hit_rate": (rate("serve.loss_cache"), "fraction"),
        "serve.overloaded": (result["overloaded"], "count"),
        "serve.job_ms_p95": (p95(j["job_ms"] for j in jobs), "ms"),
        "serve.query_ms_p50": (median(q["ms"] for q in result["queries"]),
                               "ms"),
        "serve.query_ms_p95": (p95(q["ms"] for q in result["queries"]),
                               "ms"),
    }
    samples = {"serve.jobs": len(jobs), "serve.verify": len(verify),
               "serve.attack": len(attack)}
    return metrics, samples, unattributed


def serve_traced_layers(w, work, tables, ledger, jobs, clients, workers,
                        expected):
    server = start_kanond(work, workers)
    try:
        result = drive(server, w, work, tables, "traced", 0, jobs, clients,
                       trace=True)
    finally:
        server.stop()
    check_driver(result, ledger)
    check_fetched(w, result, tables, ledger, expected)
    if not result["jobs"]:
        return {}, {}
    metrics, samples, _ = serve_layer_metrics(result)
    return metrics, samples


def serve_traced(w, args, work, ledger):
    tables = serve_tables(w, args, work, ledger)
    if tables is None:
        return None, {}
    half = max(1.0, args.seconds / 2)
    server = start_kanond(work, w["workers"])
    try:
        # Untraced, then traced.
        plain = drive(server, w, work, tables, "plain", half, 0,
                      w["clients"], trace=False)
        traced = drive(server, w, work, tables, "traced", half, 0,
                       w["clients"], trace=True)
    finally:
        server.stop()
    for result in (plain, traced):
        check_driver(result, ledger)
        check_fetched(w, result, tables, ledger)
    if not plain["jobs"] or not traced["jobs"]:
        return None, {}
    metrics, samples, unattributed = serve_layer_metrics(traced)
    traced_p50 = median(j["job_ms"] for j in traced["jobs"])
    metrics["unattributed_s"] = (median(unattributed) / 1e3, "s")
    metrics["unattributed_frac"] = (
        median(u / j["job_ms"] for u, j in zip(unattributed,
                                                traced["jobs"])), "fraction")
    metrics["tracing_overhead_ms"] = (
        traced_p50 - median(j["job_ms"] for j in plain["jobs"]), "ms")
    # The batch layers, timed in-process on the hot table with the job's
    # own settings.
    csv, spec = tables[0]
    out = os.path.join(work, "probe.csv")
    probe = run_json(probe_argv(w, csv, spec, out, extras=True))
    if read_bytes(out) == read_bytes(os.path.join(plain["fetched_dir"],
                                                  "0.csv")):
        ledger.ok()
    else:
        ledger.fail("layer_probe table differs from the fetched hot table")
    if not probe["extras"]["identical_compare"]:
        ledger.fail("the hot table differs with the thread count")
    for name, value in probe["layers"].items():
        metrics[name] = (value, "s")
    metrics.update(probe_metrics(probe, read_bytes(out)))
    samples["serve.jobs_untraced"] = len(plain["jobs"])
    return metrics, samples


# --------------------------------------------------------------------------
# Reporting


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def report(args, w, metrics, samples, ledger):
    spec = load_spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    env = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "nproc": os.cpu_count(), "rows": w["rows"], "k": w["k"],
           "method": METHOD, "threads": THREADS}
    if w["kind"] == "batch":
        env.update(tables=w["tables"])
    else:
        env.update(clients=w["clients"], workers=w["workers"],
                   segments=SERVE_SEGMENTS)
    print("# env " + json.dumps(env), flush=True)
    print("# samples " + json.dumps(samples))
    for name, (value, unit) in sorted(metrics.items()):
        count = f"  (n={samples[name]})" if name in samples else ""
        print(f"# {name:32s} {value:14.6f} {unit}{count}")
    rate = len(ledger.failures) / max(1, ledger.attempted)
    print(f"# error_rate {rate:.6f} ({len(ledger.failures)} of "
          f"{ledger.attempted} operations failed)")
    if args.trace:
        frac = metrics.get("unattributed_frac", (0.0, ""))[0]
        if frac > UNATTRIBUTED_LIMIT:
            print(f"# FLAG: unattributed_frac {frac:.3f} exceeds "
                  f"{UNATTRIBUTED_LIMIT:.0%} on {args.workload}")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    for name in missing:
        ledger.fail(f"metric {name} was not measured")
    out = {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
           for m in wanted if m["name"] in metrics}
    correct = ledger.correct
    print(json.dumps({"correct": correct,
                      "attempted": max(1, ledger.attempted),
                      "failed": len(ledger.failures), "metrics": out}),
          flush=True)
    return 0 if correct else 1


def run_once(args):
    w = WORKLOADS[args.workload]
    build()
    ledger = Ledger()
    work = os.path.join(BUILD, "work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        runner = {("batch", 0): batch_untraced, ("batch", 1): batch_traced,
                  ("serve", 0): serve_untraced,
                  ("serve", 1): serve_traced}[(w["kind"], args.trace)]
        metrics, samples = runner(w, args, work, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report(args, w, metrics or {}, samples, ledger)


def steady(args):
    """Runs one workload N times (seeds 1..N) and prints each metric's
    median and interquartile spread (as a share of the median) next to the
    bound BENCHMARK.json gives it."""
    spec = load_spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    values, envs, failed = {}, [], 0
    for seed in range(1, args.steady + 1):
        argv = [sys.executable, os.path.abspath(__file__), "--workload",
                args.workload, "--seed", str(seed), "--seconds",
                str(args.seconds), "--trace", str(args.trace)]
        start = time.perf_counter()
        done = subprocess.run(argv, capture_output=True, text=True,
                              timeout=900)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if done.returncode != 0 or not result.get("correct"):
            failed += 1
            print(f"seed {seed}: FAILED (exit {done.returncode})\n" +
                  "\n".join(lines[-5:]) + done.stderr[-500:])
            continue
        for line in lines:
            if line.startswith("# env ") or line.startswith("# samples "):
                envs.append(line[2:])
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        print(f"seed {seed}: {time.perf_counter() - start:.1f}s "
              f"failed={result['failed']} " +
              " ".join(f"{n}={e['value']:.6g}"
                       for n, e in result["metrics"].items()), flush=True)
    print("environment (per run):")
    for line in envs[:2]:
        print("  " + line)
    print(f"{'metric':32s} {'median':>14s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for m in wanted:
        vals = values.get(m["name"], [])
        if len(vals) < 2:
            print(f"{m['name']:32s} (fewer than two values)")
            continue
        q1, mid, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(mid) if mid else float("inf")
        bound = m.get("bound")
        verdict = ""
        if bound is not None:
            verdict = ("steady" if spread < bound / 3 else
                       "within bound" if spread <= bound else "TOO WIDE")
        print(f"{m['name']:32s} {mid:14.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {bound if bound is not None else '-':>6} "
              f"{verdict}")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0,
                        help="run the workload N times and print spreads")
    args = parser.parse_args()
    if args.steady:
        build()
        return steady(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
