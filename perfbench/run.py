#!/usr/bin/env python3
"""perfbench: the arpsec benchmark.

    python3 perfbench/run.py --workload replay-ingest --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of an arpsec checkout. It builds the library and the two
runners in perfbench/ (Release) under .bench_build/, renders the seeded
trace once per seed, then repeats the workload for --seconds, one process
per repetition, and prints medians. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones from a traced repetition. The last
line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workloads, metrics and their meaning: perfbench/README.md.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import array  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build"
CMAKE_DIR = WORK / "cmake"
BIN = CMAKE_DIR / "arpsec-perfbench"
BIN_TRACED = CMAKE_DIR / "arpsec-perfbench-traced"

TRACE_FRAMES = 300000

# Every scheme registered when the benchmark was written, named explicitly
# so a change to the default pool does not change the workload.
ALL_SCHEMES = [
    "none", "static-entries", "arpwatch", "snort-arpspoof", "active-probe",
    "anticap", "antidote", "middleware", "port-security", "dai", "dai-static",
    "gossip", "lease-monitor", "s-arp", "tarp",
]

# serve-flat streams the trace 4 times on one connection: a single pass
# (0.5 s) often ends before the daemon settles into its sustained regime.
# serve-paced is not in BENCHMARK.json: its latency follows the host's CPU
# steal more than the program (perfbench/README.md). It stays runnable, and
# --smoke runs it, for diagnosing idle-wait CPU and the alert path.
WORKLOADS = {
    "replay-ingest": {"kind": "replay", "schemes": ["none"]},
    "replay-schemes": {"kind": "replay", "schemes": ALL_SCHEMES},
    "serve-flat": {"kind": "serve", "rate": 0, "laps": 4},
    "serve-paced": {"kind": "serve", "rate": 100000, "laps": 1},
}
SERVE_LAPS = sorted({w["laps"] for w in WORKLOADS.values() if w["kind"] == "serve"})

END_TO_END = [
    ("frames_per_s", "1/s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = (
    [
        ("wire.pcap_read_s", "s"),
        ("wire.make_views_s", "s"),
        ("wire.allocs_per_frame", "count"),
        ("wire.stream_decode_s", "s"),
        ("replay.labels_parse_s", "s"),
        ("replay.join_s", "s"),
        ("replay.session_setup_s", "s"),
    ]
    + [("replay.session.%s.feed_s" % s, "s") for s in ALL_SCHEMES]
    + [
        ("replay.session.finish_s", "s"),
        ("replay.match_s", "s"),
        ("replay.emit_s", "s"),
        ("replay.traced_over_engine", "ratio"),
        ("serve.prime_s", "s"),
        ("serve.route_s", "s"),
        ("serve.feed_s", "s"),
        ("serve.transport_frames_per_s", "1/s"),
        ("serve.intake.backpressure_waits", "count"),
        ("serve.queue_depth_max", "count"),
        ("serve.shard_skew", "ratio"),
        ("serve.drain_latency_p50_us", "us"),
        ("serve.drain_latency_p99_us", "us"),
        ("serve.client_write_blocked_s", "s"),
        ("bench.trace_gen_s", "s"),
        ("bench.gen_lag_p99_ms", "ms"),
        ("bench.alert_latency_p50_ms", "ms"),
        ("bench.alert_latency_p90_ms", "ms"),
        ("bench.alert_latency_p99_ms", "ms"),
        ("bench.alert_latency_samples", "count"),
        ("unattributed_s", "s"),
        ("tracing_overhead_s", "s"),
    ]
)

# Span name -> per-layer metric whose value is that span's total self time.
SPAN_METRICS = {
    "wire.pcap_read": "wire.pcap_read_s",
    "wire.make_views": "wire.make_views_s",
    "wire.stream_decode": "wire.stream_decode_s",
    "replay.labels_parse": "replay.labels_parse_s",
    "replay.join": "replay.join_s",
    "replay.session_setup": "replay.session_setup_s",
    "replay.session.finish": "replay.session.finish_s",
    "replay.match": "replay.match_s",
    "replay.emit": "replay.emit_s",
    "serve.prime": "serve.prime_s",
    "serve.route": "serve.route_s",
    "serve.feed": "serve.feed_s",
    "serve.client_write": "serve.client_write_blocked_s",
}
SPAN_METRICS.update(
    {"replay.session.%s.feed" % s: "replay.session.%s.feed_s" % s for s in ALL_SCHEMES}
)

MIN_REPS = 3          # measured repetitions per run, at least
PROC_TIMEOUT_S = 120  # hard cap on any one child process
DRIFT_LIMIT = 1.5     # replay.traced_over_engine beyond this (or 1/this) warns


class BenchError(Exception):
    """Set-up failure: the run cannot produce a result."""


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def jobs():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("no arpsec source tree at %s/src; run from a full checkout" % ROOT)
    CMAKE_DIR.mkdir(parents=True, exist_ok=True)
    with open(WORK / "build.log", "w") as out:
        if not (CMAKE_DIR / "CMakeCache.txt").is_file():
            rc = subprocess.call(
                ["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR), "-DCMAKE_BUILD_TYPE=Release"],
                stdout=out, stderr=subprocess.STDOUT)
            if rc != 0:
                raise BenchError("cmake configure failed; see %s" % (WORK / "build.log"))
        rc = subprocess.call(
            ["cmake", "--build", str(CMAKE_DIR), "-j", str(jobs()),
             "--target", "arpsec_perfbench", "arpsec_perfbench_traced"],
            stdout=out, stderr=subprocess.STDOUT)
    if rc != 0:
        raise BenchError("build failed; see %s" % (WORK / "build.log"))


def run_child(cmd, cwd, timeout=PROC_TIMEOUT_S):
    """Runs one runner process to completion; returns (exit code, spawn time)."""
    with open(Path(cwd) / ("%s.log" % cmd[1]), "w") as out:
        t_spawn = time.monotonic()
        p = subprocess.Popen([str(c) for c in cmd], cwd=cwd, stdout=out, stderr=out)
        try:
            return p.wait(timeout=timeout), t_spawn
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
            return -9, t_spawn


def read_latencies(path):
    samples = array.array("d")
    with open(path, "rb") as f:
        samples.frombytes(f.read())
    return samples


def read_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def build_id():
    """Hash of the two runner binaries: results that depend on the code
    under test are cached under it, so two builds never share them."""
    h = hashlib.sha256()
    for path in (BIN, BIN_TRACED):
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def ensure_trace(seed, frames):
    """The seed's trace, rendered once and reused by every build, so that
    two builds are measured on the same bytes; returns (dir, gen.json)."""
    d = WORK / "traces" / ("seed-%d-frames-%d" % (seed, frames))
    meta = read_json(d / "gen.json")
    if meta is not None:
        return d, meta
    tmp = d.with_name(d.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    rc, _ = run_child([BIN, "gen", "--seed", seed, "--frames", frames, "--jobs", jobs(),
                       "--dir", tmp], tmp, timeout=170)
    if rc != 0:
        raise BenchError("trace generation failed; see %s" % (tmp / "gen.log"))
    shutil.rmtree(d, ignore_errors=True)
    tmp.rename(d)
    return d, read_json(d / "gen.json")


def ensure_build_dir(trace_dir):
    """This build's gate data for the trace: the serve reference (offline
    Engine alerts, computed once per build and seed) and the replay digests
    of the build's first run."""
    d = trace_dir / ("build-" + build_id())
    if (d / "serve_reference.json").is_file():
        return d
    d.mkdir(exist_ok=True)
    rc, _ = run_child([BIN, "reference", "--pcap", trace_dir / "trace.pcap",
                       "--laps", ",".join(map(str, SERVE_LAPS)),
                       "--out", d / "serve_reference.json.tmp"], d, timeout=170)
    if rc != 0:
        raise BenchError("serve reference failed; see %s" % (d / "reference.log"))
    (d / "serve_reference.json.tmp").rename(d / "serve_reference.json")
    return d


def fresh_dir(name):
    d = WORK / "runs" / name
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    return d


# --- one repetition -------------------------------------------------------
# Each returns a dict: ok, errors, wall (the end-to-end window, s), the
# end-to-end metric values, and what the gates and the layer table need.

def replay_rep(trace_dir, schemes, run_dir, traced=False):
    cmd = [BIN_TRACED if traced else BIN, "replay", "--pcap", trace_dir / "trace.pcap",
           "--schemes", ",".join(schemes), "--out-dir", run_dir,
           "--result", run_dir / "result.json"]
    if traced:
        cmd += ["--trace-out", run_dir / "spans.json"]
    rc, t_spawn = run_child(cmd, run_dir)
    r = read_json(run_dir / "result.json")
    if rc != 0 or r is None:
        return {"ok": False, "errors": ["replay exited %d; see %s" % (rc, run_dir)]}
    # The command's clock: from spawn (exec and start-up included) to the
    # end of emit. In a batch command every alert reaches the user then, and
    # every frame was available at spawn, so alert latency is that span.
    wall = r["end_mono"] - t_spawn
    return {
        "ok": True, "errors": [], "wall": wall, "t0": t_spawn, "result": r,
        "frames": r["frames"],
        "frames_per_s": r["frames"] / wall,
        "setup_s": r["setup_end_mono"] - t_spawn,
        "cpu_s": r["cpu_s"],
        "peak_rss_mb": r["peak_rss_mb"],
        "alert_latency_p50_ms": wall * 1e3,
        "alert_latency_p90_ms": wall * 1e3,
        "alert_latency_p99_ms": wall * 1e3,
        "alert_latency_samples": r["alerts"],
        "digest": (r["scorecard_digest"], r["alert_digest"]),
    }


def serve_rep(trace_dir, build_dir, rate, laps, run_dir, traced=False):
    binary = BIN_TRACED if traced else BIN
    sock = "s.sock"  # relative: sun_path is short, the checkout path may not be
    client_cmd = [binary, "client", "--pcap", trace_dir / "trace.pcap", "--unix", sock,
                  "--reference", build_dir / "serve_reference.json", "--laps", laps,
                  "--result", run_dir / "client.json", "--rate", rate,
                  "--latencies-out", run_dir / "latencies.f64"]
    daemon_cmd = [binary, "served", "--unix", sock, "--result", run_dir / "daemon.json"]
    if traced:
        client_cmd += ["--trace-out", run_dir / "client_spans.json"]
        daemon_cmd += ["--trace-out", run_dir / "daemon_spans.json"]
    errors = []
    client = daemon = None
    client_log = open(run_dir / "client.log", "w")
    daemon_log = open(run_dir / "daemon.log", "w")
    try:
        client = subprocess.Popen([str(c) for c in client_cmd], cwd=run_dir,
                                  stdout=subprocess.PIPE, stderr=client_log)
        # The client loads and encodes the trace first; the daemon starts
        # once it is ready.
        ready, _, _ = select.select([client.stdout], [], [], PROC_TIMEOUT_S)
        if not ready or client.stdout.readline().strip() != b"ready":
            raise BenchError("client never became ready")
        daemon = subprocess.Popen([str(c) for c in daemon_cmd], cwd=run_dir,
                                  stdout=daemon_log, stderr=daemon_log)
        client_rc = client.wait(timeout=PROC_TIMEOUT_S)
        daemon_rc = daemon.wait(timeout=30)
    except (BenchError, subprocess.TimeoutExpired) as e:
        errors.append("serve run did not finish: %s" % e)
        client_rc = daemon_rc = -9
    finally:
        for p in (client, daemon):
            if p is not None and p.poll() is None:
                p.kill()
                p.wait()
        if client is not None:
            client.stdout.close()
        client_log.close()
        daemon_log.close()
    c = read_json(run_dir / "client.json")
    d = read_json(run_dir / "daemon.json")
    if client_rc != 0:
        errors.append("client exited %d" % client_rc)
    if daemon_rc != 0:
        errors.append("daemon exited %d" % daemon_rc)
    if c is not None:
        errors += c.get("errors", [])
    if c is None or d is None:
        errors.append("missing results under %s" % run_dir)
    elif d["transport_error"]:
        errors.append("daemon: " + d["transport_error"])
    if errors:
        return {"ok": False, "errors": errors}
    wall = c["summary_mono"] - c["first_write_mono"]
    return {
        "ok": True, "errors": [], "wall": wall, "t0": c["first_write_mono"],
        "client": c, "daemon": d,
        "frames": c["frames_sent"],
        "frames_per_s": c["frames_processed"] / wall,
        # The daemon's set-up, repeated in-process after the stream
        # (perfbench/README.md, "setup_s on serve"); summarize() pools the
        # samples of every repetition.
        "setup_s": statistics.median(d["setup_samples"]),
        "setup_samples": d["setup_samples"],
        "cpu_s": d["cpu_s"],
        "peak_rss_mb": d["peak_rss_mb"],
        "alert_latency_p50_ms": c["alert_latency_p50_ms"],
        "alert_latency_p90_ms": c["alert_latency_p90_ms"],
        "alert_latency_p99_ms": c["alert_latency_p99_ms"],
        "alert_latency_samples": c["alert_latency_samples"],
        "latencies": read_latencies(run_dir / "latencies.f64"),
        "digest": None,
    }


def run_rep(spec, trace_dir, build_dir, name, traced=False):
    run_dir = fresh_dir(name)
    if spec["kind"] == "replay":
        return replay_rep(trace_dir, spec["schemes"], run_dir, traced)
    return serve_rep(trace_dir, build_dir, spec["rate"], spec["laps"], run_dir, traced)


# --- gates ----------------------------------------------------------------

class Gates:
    """Counts runs and failures. A run fails when any gate fails: the
    child's own checks (serve alerts equal the offline reference, frames
    processed equal frames sent) and, for replay, identical scorecard and
    alert digests across every run of this workload, seed and build."""

    def __init__(self, workload, build_dir):
        self.attempted = 0
        self.failed = 0
        self.digest_file = build_dir / ("digest-%s.json" % workload)

    def fail(self, errors):
        self.failed += 1
        log("run failed: " + "; ".join(errors))

    def check(self, rep):
        self.attempted += 1
        errors = list(rep["errors"])
        if rep["ok"] and rep["digest"] is not None:
            want = read_json(self.digest_file)
            if want is None:
                with open(self.digest_file, "w") as f:
                    json.dump(list(rep["digest"]), f)
            elif list(rep["digest"]) != want:
                errors.append("replay digests %s differ from the first run's %s"
                              % (list(rep["digest"]), want))
        if errors:
            self.fail(errors)
        return not errors


def repeat(spec, trace_dir, build_dir, gates, seconds, label):
    """Repetitions for `seconds`, at least MIN_REPS; returns the passing
    ones. No warm-up run: the trace was just written or read, so the page
    cache is warm, and medians absorb a slow first run."""
    reps = []
    t_start = time.monotonic()
    i = 0
    while True:
        rep = run_rep(spec, trace_dir, build_dir, "%s-%d" % (label, i))
        i += 1
        if gates.check(rep):
            reps.append(rep)
        if i >= MIN_REPS and time.monotonic() - t_start >= seconds:
            break
        if i >= 4 * MIN_REPS and not reps:
            break  # failing every time: stop early
    return reps


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


LATENCY_QUANTILES = {
    "alert_latency_p50_ms": 0.50,
    "alert_latency_p90_ms": 0.90,
    "alert_latency_p99_ms": 0.99,
}


def nearest_rank(sorted_values, q):
    """The same percentile rule as the runners' own."""
    rank = min(max(1, math.ceil(q * len(sorted_values))), len(sorted_values))
    return sorted_values[rank - 1]


def summarize(reps):
    """Medians over the repetitions, with two exceptions that pool samples
    over every repetition: serve alert latency percentiles (every alert)
    and serve setup_s (the median of every set-up sample).
    Returns name -> (value, quartiles of the per-repetition values)."""
    out = {}
    pooled = sorted(x for r in reps for x in r.get("latencies", ()))
    setups = [x for r in reps for x in r.get("setup_samples", ())]
    for name in [n for n, _ in END_TO_END] + list(LATENCY_QUANTILES):
        lo, med, hi = quartiles([r[name] for r in reps])
        if pooled and name in LATENCY_QUANTILES:
            med = nearest_rank(pooled, LATENCY_QUANTILES[name])
        if setups and name == "setup_s":
            med = statistics.median(setups)
        out[name] = (med, lo, hi)
    log("%d measured repetitions, %d alert latency samples pooled (%d per run)"
        % (len(reps), len(pooled), statistics.median(r["alert_latency_samples"] for r in reps)))
    for name, (med, lo, hi) in out.items():
        log("  %-22s %.6g  (per run: quartiles %.6g .. %.6g)" % (name, med, lo, hi))
    return out


def end_to_end(reps):
    values = summarize(reps)
    return {name: {"value": values[name][0], "unit": unit} for name, unit in END_TO_END}


# --- traced run: spans -> per-layer table ---------------------------------

def load_spans(docs):
    spans = []
    for doc in docs:
        for e in doc["traceEvents"]:
            spans.append({
                "name": e["name"], "pid": e["pid"], "id": e["args"]["id"],
                "parent": e["args"]["parent"],
                "start": e["ts"] / 1e6, "end": (e["ts"] + e["dur"]) / 1e6,
            })
    return spans


def union_length(intervals):
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Span name -> summed self time: duration minus the part of it that
    its child spans cover."""
    children = {}
    for s in spans:
        children.setdefault((s["pid"], s["parent"]), []).append(s)
    out = {}
    for s in spans:
        kids = [(max(k["start"], s["start"]), min(k["end"], s["end"]))
                for k in children.get((s["pid"], s["id"]), [])]
        covered = union_length([k for k in kids if k[1] > k[0]])
        out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - covered
    return out


def traced_layers(spec, trace_dir, build_dir, meta, gates, seconds, runs, tag):
    """Per-layer metrics: untraced repetitions for the overhead baseline,
    then one traced repetition whose spans are broken down by layer."""
    base = repeat(spec, trace_dir, build_dir, gates, seconds / 2, runs + "/untraced")
    rep = run_rep(spec, trace_dir, build_dir, runs + "/traced", traced=True)
    if not gates.check(rep) or not base:
        return None
    layers = {name: 0.0 for name, _ in PER_LAYER}
    run_dir = WORK / "runs" / runs / "traced"
    frames = rep["frames"]
    if spec["kind"] == "replay":
        span_files = [run_dir / "spans.json"]
        r = rep["result"]
        layers["wire.allocs_per_frame"] = r["ingest_allocs"] / frames
        # The scheme spans re-state Engine::run's loop; the traced run also
        # timed Engine::run itself, so drift between the two shows here.
        layers["replay.traced_over_engine"] = (
            r["traced_feed_finish_s"] / r["engine_feed_finish_s"])
        if not 1 / DRIFT_LIMIT <= layers["replay.traced_over_engine"] <= DRIFT_LIMIT:
            log("WARNING: the traced scheme loop took %.2fx Engine::run's feed + finish "
                "time; it may no longer match the library (perfbench/src/replay_run.cpp)"
                % layers["replay.traced_over_engine"])
    else:
        # The intake stages, single-threaded, over the same records.
        stages_dir = fresh_dir(runs + "/stages")
        rc, _ = run_child([BIN_TRACED, "stages", "--pcap", trace_dir / "trace.pcap",
                           "--unix", "s.sock", "--laps", spec["laps"],
                           "--reference", build_dir / "serve_reference.json",
                           "--result", stages_dir / "result.json",
                           "--trace-out", stages_dir / "spans.json"], stages_dir)
        st = read_json(stages_dir / "result.json")
        if rc != 0 or st is None or not st["ok"]:
            gates.fail(["stages run failed; see %s" % stages_dir])
            return None
        span_files = [run_dir / "client_spans.json", run_dir / "daemon_spans.json",
                      stages_dir / "spans.json"]
        c, d = rep["client"], rep["daemon"]["metrics"]
        shard_frames = d["shard_frames"]
        layers["wire.allocs_per_frame"] = st["intake_allocs"] / frames
        layers["serve.transport_frames_per_s"] = st["transport_frames_per_s"]
        layers["serve.intake.backpressure_waits"] = d["backpressure_waits"]
        layers["serve.queue_depth_max"] = d["queue_depth_max"]
        layers["serve.shard_skew"] = max(shard_frames) / statistics.mean(shard_frames)
        layers["serve.drain_latency_p50_us"] = d.get("drain_latency_p50_us", 0.0)
        layers["serve.drain_latency_p99_us"] = d.get("drain_latency_p99_us", 0.0)
        layers["bench.gen_lag_p99_ms"] = c["gen_lag_p99_ms"] if spec["rate"] else 0.0
    docs = [read_json(path) for path in span_files]
    if None in docs:
        raise BenchError("missing span file among %s" % [str(p) for p in span_files])
    spans = load_spans(docs)
    for span_name, t in self_times(spans).items():
        if span_name in SPAN_METRICS:
            layers[SPAN_METRICS[span_name]] += t

    # unattributed: the end-to-end window minus the top-level spans inside
    # it (for serve, the daemon's; the stages run is outside the window).
    window = (rep["t0"], rep["t0"] + rep["wall"])
    tops = [s for s in spans
            if s["parent"] == -1 and s["pid"] in ("replay", "served")]
    clipped = [(max(s["start"], window[0]), min(s["end"], window[1])) for s in tops]
    layers["unattributed_s"] = (window[1] - window[0]) - union_length(
        [c for c in clipped if c[1] > c[0]])
    untraced_wall = statistics.median(r["wall"] for r in base)
    # Alert latency is reported here, unbounded, from the untraced runs:
    # on this benchmark's host it follows CPU steal more than the program
    # (perfbench/README.md, "Why alert latency is not gated").
    untraced = summarize(base)
    for name in LATENCY_QUANTILES:
        layers["bench." + name] = untraced[name][0]
    layers["tracing_overhead_s"] = rep["wall"] - untraced_wall
    layers["bench.trace_gen_s"] = meta["trace_gen_s"]
    layers["bench.alert_latency_samples"] = rep["alert_latency_samples"]

    # Keep the span file and the table beside each other for inspection.
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    merged = {"traceEvents": [e for doc in docs for e in doc["traceEvents"]],
              "displayTimeUnit": "ms"}
    with open(results / ("%s.trace.json" % tag), "w") as f:
        json.dump(merged, f)
    lines = ["per-layer breakdown: %s (traced wall %.4f s, untraced median %.4f s)"
             % (tag, rep["wall"], untraced_wall)]
    for name, unit in PER_LAYER:
        lines.append("  %-36s %14.6f %s" % (name, layers[name], unit))
    with open(results / ("%s.layers.txt" % tag), "w") as f:
        f.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    print("span file: %s" % (results / ("%s.trace.json" % tag)))
    return {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}


def git_describe():
    """The checkout's describe string, read now (not at configure time,
    which the cached build would freeze); a tree without git history
    reports "unknown"."""
    try:
        return subprocess.check_output(
            ["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT, text=True,
            stderr=subprocess.DEVNULL).strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def stamp():
    info = {}
    try:
        info = json.loads(subprocess.check_output([str(BIN), "info"], text=True))
    except (OSError, subprocess.CalledProcessError, ValueError):
        pass
    info.update({
        "git_describe": git_describe(),
        "build_id": build_id(),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    })
    return info


def run(args):
    spec = WORKLOADS[args.workload]
    build()
    trace_dir, meta = ensure_trace(args.seed, args.frames)
    build_dir = ensure_build_dir(trace_dir)
    tag = "%s-seed%d" % (args.workload, args.seed)
    if args.frames != TRACE_FRAMES:
        tag += "-frames%d" % args.frames
    print("stamp: " + json.dumps(stamp(), sort_keys=True))
    print("trace: seed %d, %d frames, %d attacks, rendered in %.3f s"
          % (args.seed, meta["frames"], meta["attacks"], meta["trace_gen_s"]))
    gates = Gates(args.workload, build_dir)
    # Run directories are per workload and overwritten by the next
    # invocation; the span file and the layer table go to results/.
    shutil.rmtree(WORK / "runs" / args.workload, ignore_errors=True)
    if args.trace:
        metrics = traced_layers(spec, trace_dir, build_dir, meta, gates, args.seconds,
                                args.workload, tag)
    else:
        reps = repeat(spec, trace_dir, build_dir, gates, args.seconds, args.workload + "/run")
        metrics = end_to_end(reps) if reps else None
    correct = metrics is not None and gates.failed == 0
    return {"correct": correct, "attempted": gates.attempted, "failed": gates.failed,
            "metrics": metrics or {}}


def smoke():
    """Every workload on a tiny trace, traced and not; the metric names
    each run emits must be exactly the ones BENCHMARK.json declares."""
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    want = {
        0: {m["name"] for m in bench["end_to_end"]},
        1: {m["name"] for m in bench["per_layer"]},
    }
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", name, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--frames", "3000"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            try:
                res = json.loads(out.stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                res = None
            good = (out.returncode == 0 and res is not None and res["correct"]
                    and res["failed"] == 0 and set(res["metrics"]) == want[trace])
            print("smoke %-15s trace=%d %s" % (name, trace, "ok" if good else "FAILED"))
            if not good:
                ok = False
                sys.stderr.write(out.stderr[-2000:])
                if res is not None:
                    extra = set(res["metrics"]) ^ want[trace]
                    print("  metric names not matching BENCHMARK.json: %s" % sorted(extra))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--frames", type=int, default=TRACE_FRAMES,
                    help="trace size (the benchmark uses the default)")
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload on a tiny trace and check metric names")
    args = ap.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        result = run(args)
    except BenchError as e:
        log(str(e))
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
