#!/usr/bin/env python3
"""Open-loop wire benchmark for the sccf_server daemon.

One run = one workload at one seed:

    python3 perfbench/run.py --workload browse --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout. It builds the daemon and pbtool
(perfbench/CMakeLists.txt) into .bench_build/, starts the real daemon
several times to time set-up, drives the last one with pbtool's open-loop
client, checks the outputs against an in-process twin engine, and prints
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1,
which adds the traced in-process pass). The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --all --seed 1 --seconds 24

runs every workload and prints all end-to-end metrics. See README.md.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BUILD_TYPE = "Release"

SLO_MS = 10.0
# Set-up is timed on at least MIN_SPAWNS daemon starts, and on more while
# they add up to under SETUP_BUDGET_S (cheap corpora start in ~25 ms,
# where process-spawn noise needs more samples), at most MAX_SPAWNS.
MIN_SPAWNS = 3
MAX_SPAWNS = 15
SETUP_BUDGET_S = 2.0
# A run whose generator sent its p99 request later than this after its
# due time measured the client, not the server: it is reported invalid.
# Equal to the latency limit: a generator that late would by itself push
# requests over it. (On a 4-vCPU virtual machine, scheduling stalls of an
# idle spin loop reached ~10 ms at p99.9.)
GEN_LAG_LIMIT_MS = SLO_MS
TAIL_LEVELS = (0.99, 0.98, 0.95, 0.9, 0.75, 0.5)
MIN_BEYOND = 10
P50_WINDOWS = 10

WORKLOADS = ("browse", "ingest_storm", "fresh_session")

END_TO_END = (
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("ingest_p50_ms", "ms"),
    ("fresh_rec_p50_ms", "ms"),
    ("peak_rps", "req/s"),
    ("hit_rate_at_10", "ratio"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("server.parse_us", "us"),
    ("server.dispatch_self_us", "us"),
    ("server.wire_overhead_us", "us"),
    ("server.reply_bytes", "bytes"),
    ("server.commands_shed", "count"),
    ("server.protocol_errors", "count"),
    ("server.connections_refused", "count"),
    ("core.identify_us", "us"),
    ("core.identify_discarded_ratio", "ratio"),
    ("core.infer_us", "us"),
    ("core.index_us", "us"),
    ("engine.ingest_us", "us"),
    ("core.neighbors_us", "us"),
    ("core.recommend_us", "us"),
    ("core.shards_per_query", "count"),
    ("engine.recommend_us", "us"),
    ("engine.neighbors_us", "us"),
    ("engine.history_us", "us"),
    ("index.search_us", "us"),
    ("index.rows_scanned", "count"),
    ("simd.dot_batch_us", "us"),
    ("simd.topk_us", "us"),
    ("simd.bytes_per_query", "bytes"),
    ("simd.flops_per_query", "count"),
    ("simd.dot_batch_i8_us", "us"),
    ("quant.encode_us", "us"),
    ("index.add_us", "us"),
    ("core.compact_us", "us"),
    ("core.rows_drained", "count"),
    ("engine.pending_upserts", "count"),
    ("models.infer_us", "us"),
    ("persist.journal_append_us", "us"),
    ("persist.journal_bytes_per_event", "bytes"),
    ("persist.bgsave_reply_ms", "ms"),
    ("persist.save_duration_ms", "ms"),
    ("persist.snapshot_bytes", "bytes"),
    ("index.memory_bytes", "bytes"),
    ("quant.code_bytes", "bytes"),
    ("client.query_p99_ms", "ms"),
    ("client.ingest_p99_ms", "ms"),
    ("client.fresh_rec_p99_ms", "ms"),
    ("client.slo_miss_ratio", "ratio"),
    ("client.gen_lag_p99_ms", "ms"),
)


class BenchError(Exception):
    """A run that cannot produce a result (build, daemon or tool failure)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------ statistics


def nearest_rank(sorted_samples, level):
    """Value at `level` (0..1] by the nearest-rank rule."""
    rank = max(1, math.ceil(level * len(sorted_samples)))
    return sorted_samples[rank - 1]


def tail_percentile(samples, want=0.99, min_beyond=MIN_BEYOND):
    """The highest level <= `want` with at least `min_beyond` samples above
    its rank, and the value there: (level, value). (None, None) when even
    the median is unsupported."""
    s = sorted(samples)
    for level in TAIL_LEVELS:
        if level > want:
            continue
        rank = max(1, math.ceil(level * len(s)))
        if len(s) - rank >= min_beyond:
            return level, s[rank - 1]
    return None, None


def windowed_median(samples, windows=P50_WINDOWS):
    """Median of the medians of `windows` consecutive equal-count slices
    (arrival order). The host can slow the daemon for seconds at a time;
    that moves the few windows it covers, not the median window."""
    k = max(1, min(windows, len(samples)))
    return statistics.median(
        nearest_rank(sorted(samples[i * len(samples) // k:
                                    (i + 1) * len(samples) // k]), 0.5)
        for i in range(k))


def latency_summary(samples):
    """Windowed p50 and the whole run's supported tail of a latency list
    (ms)."""
    if not samples:
        return {"count": 0, "p50": None, "tail_level": None, "tail": None}
    level, tail = tail_percentile(samples)
    return {"count": len(samples), "p50": windowed_median(samples),
            "tail_level": level, "tail": tail}


def summarize_load(load):
    """Turns pbtool load output into metrics and a verdict.

    Failures and refusals count as SLO misses (pbtool already adds each
    failed open-loop frame to slo_miss); a run with any failure is not
    correct; a run whose generator lagged is invalid."""
    lat = load["latency_ms"]
    summary = {k: latency_summary(lat[k])
               for k in ("query", "ingest", "fresh_rec")}
    lag_level, lag_tail = tail_percentile(load["gen_lag_ms"])
    gen_lag = lag_tail if lag_tail is not None else 0.0
    attempted = int(load["attempted"])
    failed = int(load["failed"])
    invalid = []
    if gen_lag > GEN_LAG_LIMIT_MS:
        invalid.append("generator fell behind: p%g lag %.3f ms > %.1f ms"
                       % (100 * lag_level, gen_lag, GEN_LAG_LIMIT_MS))
    for kind, s in summary.items():
        if s["tail"] is None:
            invalid.append("too few %s samples (%d)" % (kind, s["count"]))
    return {
        "summary": summary,
        "gen_lag_p99_ms": gen_lag,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not invalid,
        "slo_miss_ratio": load["slo_miss"] / max(1, load["open_attempted"]),
        "peak_rps": peak_rps(load),
        "hit_rate_at_10": load["hits"] / max(1, load["held_out_items"]),
        "invalid": invalid,
    }


def peak_rps(load):
    """Median rate over the closed-loop phase's full 250 ms bins."""
    width = load["saturation_bin_s"]
    full = int(load["saturation_seconds"] / width + 1e-9)
    bins = (load["saturation_bins"] + [0] * full)[:full]
    return statistics.median(b / width for b in bins)


# ------------------------------------------------------------------ build


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no source tree at %s: run from a full checkout"
                         % ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                   "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    run_quiet(["cmake", "--build", BUILD_DIR, "-j", "4",
               "--target", "pbtool", "sccf_server_main"])


def run_quiet(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        raise BenchError("command failed: " + " ".join(cmd))


def pbtool(*args):
    proc = subprocess.run([os.path.join(BUILD_DIR, "pbtool"), *args],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        raise BenchError("pbtool %s exited %d" % (args[0], proc.returncode))
    return proc.stdout


# ----------------------------------------------------------------- daemon


class Daemon:
    """One sccf_server process on an ephemeral port."""

    def __init__(self, flags, seed, data_dir, log_path):
        cmd = [os.path.join(BUILD_DIR, "sccf", "sccf_server"), "--port=0",
               "--seed=%d" % seed, *flags]
        if data_dir:
            cmd.append("--data_dir=" + data_dir)
        self.cmd = cmd
        self.data_dir = data_dir
        self.log = open(log_path, "w")
        start = time.monotonic()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self.log, text=True)
        self.users = self.items = self.port = None
        for line in self.proc.stdout:
            if line.startswith("corpus "):
                kv = dict(f.split("=") for f in line.split()[1:])
                self.users, self.items = int(kv["users"]), int(kv["items"])
            elif line.startswith("listening on "):
                self.port = int(line.rsplit(":", 1)[1])
                break
        self.setup_s = time.monotonic() - start
        if self.port is None:
            self.stop()
            raise BenchError("daemon exited before listening: "
                             + " ".join(cmd))

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the daemon")

    def stop(self):
        """SIGTERM (graceful drain); returns the drain line's counters."""
        drained = {}
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            rest, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            rest, _ = self.proc.communicate()
        self.log.close()
        for line in (rest or "").splitlines():
            if line.startswith("drained:"):
                drained = {k: int(v) for k, v in
                           (f.split("=") for f in line.split()[1:])}
        return drained


def cpu_times():
    """The aggregate `cpu` line of /proc/stat: user nice system idle iowait
    irq softirq steal (in clock ticks)."""
    with open("/proc/stat") as f:
        return [int(v) for v in f.readline().split()[1:9]]


def steal_share(before, after):
    """Share of CPU time the hypervisor gave to others between two
    readings (0 on bare metal)."""
    delta = [a - b for a, b in zip(after, before)]
    return delta[7] / max(1, sum(delta))


def dir_bytes(path, prefix):
    return sum(os.path.getsize(os.path.join(path, f))
               for f in os.listdir(path) if f.startswith(prefix))


# -------------------------------------------------------------------- run


def run_workload(workload, seed, seconds, trace, stall_ms=0,
                 corrupt_probe=False):
    spec = json.loads(pbtool("spec", "--workload=" + workload))[workload]
    corpus_seed = spec["corpus_seed"]
    tag = "%s-seed%d" % (workload, seed)
    tmp = os.path.join(OUT_DIR, "tmp-" + tag)
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    daemons = []
    try:
        while True:
            i = len(daemons)
            data_dir = (os.path.join(tmp, "data%d" % i)
                        if spec["data_dir"] else None)
            daemons.append(Daemon(spec["daemon_flags"], corpus_seed,
                                  data_dir,
                                  os.path.join(tmp, "daemon%d.log" % i)))
            spent = sum(d.setup_s for d in daemons)
            if len(daemons) >= MAX_SPAWNS or (
                    len(daemons) >= MIN_SPAWNS and spent >= SETUP_BUDGET_S):
                break
            daemons[-1].stop()
        daemon = daemons[-1]
        data_dir = daemon.data_dir
        load_path = os.path.join(OUT_DIR, "load-%s.json" % tag)
        args = ["load", "--workload=" + workload, "--seed=%d" % seed,
                "--seconds=%g" % seconds, "--port=%d" % daemon.port,
                "--expect_users=%d" % daemon.users,
                "--expect_items=%d" % daemon.items, "--out=" + load_path]
        if stall_ms:
            args.append("--inject_stall_ms=%d" % stall_ms)
        if corrupt_probe:
            args.append("--corrupt_probe_reply=1")
        cpu_before = cpu_times()
        pbtool(*args)
        steal = steal_share(cpu_before, cpu_times())
        rss_mb = daemon.peak_rss_mb()
        drained = daemon.stop()
        with open(load_path) as f:
            load = json.load(f)
        snapshot_bytes = dir_bytes(data_dir, "snapshot") if data_dir else 0
        traced = None
        if trace:
            trace_path = os.path.join(tmp, "trace.json")
            pbtool("trace", "--workload=" + workload, "--seed=%d" % seed,
                   "--seconds=%g" % seconds, "--out=" + trace_path,
                   "--spans=" + os.path.join(OUT_DIR, "spans-%s.json" % tag),
                   "--scratch=" + tmp)
            with open(trace_path) as f:
                traced = json.load(f)
    finally:
        for d in daemons:
            if d.proc.poll() is None:
                d.stop()
    shutil.rmtree(tmp, ignore_errors=True)

    s = summarize_load(load)
    sm = s["summary"]
    e2e = {
        "setup_s": statistics.median(d.setup_s for d in daemons),
        "query_p50_ms": sm["query"]["p50"],
        "ingest_p50_ms": sm["ingest"]["p50"],
        "fresh_rec_p50_ms": sm["fresh_rec"]["p50"],
        "peak_rps": s["peak_rps"],
        "hit_rate_at_10": s["hit_rate_at_10"],
        "peak_rss_mb": rss_mb,
    }
    layer = None
    if traced is not None:
        layer = dict(traced["metrics"])
        bgsave = load["latency_ms"]["bgsave"]
        layer.update({
            "server.wire_overhead_us": load["wire_rtt_us"]
            - load["execute_us"],
            "server.commands_shed": drained.get("shed", 0),
            "server.protocol_errors": drained.get("protocol_errors", 0),
            "server.connections_refused": drained.get("refused", 0),
            "persist.bgsave_reply_ms": bgsave[0] if bgsave else 0.0,
            "persist.save_duration_ms":
                max(0, load["last_save_duration_ms"]),
            "persist.snapshot_bytes": snapshot_bytes,
            "index.memory_bytes": load["embedding_bytes"]
            + load["code_bytes"],
            "quant.code_bytes": load["code_bytes"],
            "client.query_p99_ms": sm["query"]["tail"],
            "client.ingest_p99_ms": sm["ingest"]["tail"],
            "client.fresh_rec_p99_ms": sm["fresh_rec"]["tail"],
            "client.slo_miss_ratio": s["slo_miss_ratio"],
            "client.gen_lag_p99_ms": s["gen_lag_p99_ms"],
        })
    fingerprint = {
        "workload": workload,
        "nproc": os.cpu_count(),
        "simd_variant": load["simd_variant"],
        "build_type": BUILD_TYPE,
        "git_commit": git_commit(),
        "seed": seed,
        "corpus_seed": load["corpus_seed"],
        "stream_seed": load["stream_seed"],
        "daemon_cmd": " ".join(os.path.basename(c) if i == 0 else c
                               for i, c in enumerate(daemon.cmd)),
        "corpus": [daemon.users, daemon.items],
        "seconds": seconds,
        "samples": {k: {"count": v["count"], "tail_level": v["tail_level"],
                        "tail_ms": v["tail"]}
                    for k, v in sm.items()},
        "requests_attempted": s["attempted"],
        "requests_failed": s["failed"],
        "slo_miss_ratio": s["slo_miss_ratio"],
        "gen_lag_p99_ms": s["gen_lag_p99_ms"],
        "setup_spawns": len(daemons),
        "host_steal_share": steal,
        "invalid": s["invalid"],
        "failure_samples": load["failure_samples"],
    }
    if traced is not None:
        fingerprint["ingest_time_share"] = traced["ingest_time_share"]
        fingerprint["traced_frames"] = traced["traced_frames"]
    return {"fingerprint": fingerprint, "end_to_end": e2e,
            "per_layer": layer,
            "correct": s["correct"],
            "attempted": s["attempted"], "failed": s["failed"]}


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or "unknown"


def print_result(result):
    fp = result["fingerprint"]
    print("# %s  seed=%d  nproc=%d  simd=%s  build=%s  commit=%s"
          % (fp["workload"], fp["seed"], fp["nproc"], fp["simd_variant"],
             fp["build_type"], fp["git_commit"]))
    print("# daemon: " + fp["daemon_cmd"])
    for kind, s in fp["samples"].items():
        level = s["tail_level"]
        print("# %s samples=%d  p%s %s ms" % (
            kind, s["count"], "%g" % (100 * level) if level else "-",
            fmt(s["tail_ms"])))
    print("# requests_attempted=%d requests_failed=%d slo_miss_ratio=%.6f "
          "gen_lag_p99_ms=%.4f" % (fp["requests_attempted"],
                                   fp["requests_failed"],
                                   fp["slo_miss_ratio"],
                                   fp["gen_lag_p99_ms"]))
    print("# setup_spawns=%d host_steal_share=%.4f (CPU time the hypervisor "
          "took during the load)" % (fp["setup_spawns"],
                                      fp["host_steal_share"]))
    for reason in fp["invalid"]:
        print("# INVALID: " + reason)
    for sample in fp["failure_samples"]:
        print("# FAILED: " + sample)
    for name, unit in END_TO_END:
        print("%-32s %16s %s" % (name, fmt(result["end_to_end"][name]), unit))
    if result["per_layer"] is not None:
        for name, unit in PER_LAYER:
            print("%-32s %16s %s" % (name, fmt(result["per_layer"][name]),
                                     unit))
        for name, share in sorted(fp["ingest_time_share"].items(),
                                  key=lambda kv: -kv[1]["inclusive"]):
            print("# ingest time share %-24s inclusive %.3f self %.3f"
                  % (name, share["inclusive"], share["self"]))


def fmt(value):
    return "-" if value is None else "%.6f" % value


def metrics_block(values, table):
    return {name: {"value": values[name], "unit": unit}
            for name, unit in table}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload and print all metrics")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject_stall_ms", type=int, default=0,
                    help=argparse.SUPPRESS)  # harness self-test
    ap.add_argument("--corrupt_probe_reply", action="store_true",
                    help=argparse.SUPPRESS)  # harness self-test
    args = ap.parse_args()
    if not args.all and args.workload is None:
        ap.error("--workload or --all is required")
    try:
        build()
        os.makedirs(OUT_DIR, exist_ok=True)
        workloads = WORKLOADS if args.all else (args.workload,)
        results = {}
        for w in workloads:
            results[w] = run_workload(w, args.seed, args.seconds,
                                      args.trace == 1, args.inject_stall_ms,
                                      args.corrupt_probe_reply)
            print_result(results[w])
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        log("run.py: %s" % e)
        return 1
    with open(os.path.join(OUT_DIR, "result-seed%d.json" % args.seed),
              "w") as f:
        json.dump(results, f, indent=1)
    table = PER_LAYER if args.trace else END_TO_END
    key = "per_layer" if args.trace else "end_to_end"
    if args.all:
        metrics = {}
        for w, r in results.items():
            for name, m in metrics_block(r[key], table).items():
                metrics[w + "." + name] = m
    else:
        metrics = metrics_block(results[args.workload][key], table)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
