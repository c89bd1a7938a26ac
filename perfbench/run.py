#!/usr/bin/env python3
"""Repo benchmark for the Redbud delayed-commit simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call builds the library from
src/ twice into .bench_build/ (or $CARGO_TARGET_DIR): a release build for
the measurements and a -pg build for the gprof host-time breakdown.

--trace 0 repeats the workload, untraced and one process at a time, until
--seconds of host time have passed (at least MIN_REPS times), checks every
repetition's outputs, and prints the end-to-end metrics: medians of the
host-time figures, and the simulated figures, which must be identical in
every repetition of a seed. --trace 1 runs the workload once untraced, once
with span tracing and once under gprof, and prints the per-layer metrics.
The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""
import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
HARNESS = "perfbench_harness"
MIN_REPS = 3
# Closed-loop set-ups take 0.1-0.6 s: each repetition times this many more
# after its run, and reports the median.
EXTRA_SETUPS = 4

# name -> kernel worker threads, the thread count whose run must reproduce
# every simulated figure, and whether latencies come from a traced run.
WORKLOADS = {
    "paper-xcdn32k": {},
    "shard8-t4": {"threads": 4, "identity_threads": 1},
    # The open-loop engine exposes only bucketed histograms, so its exact
    # per-call latencies come from the span instants of a traced run of
    # the same seed.
    "fleet-100k": {"latency_from_trace": True},
}

# (name, unit) of the end-to-end metrics; sim_* are simulated figures.
END_TO_END = [
    ("sim_ops_per_host_s", "ops/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_ops_s", "ops/s"),
    ("sim_op_mean_us", "us"),
    ("sim_op_p99_us", "us"),
    ("sim_update_mean_us", "us"),
    ("sim_meta_mean_us", "us"),
]
SIM_LATENCY = ["sim_op_mean_us", "sim_op_p99_us", "sim_update_mean_us",
               "sim_meta_mean_us"]
REFERENCE = ["ref_update_p50_us", "ref_update_p99_us", "ref_read_p50_us",
             "ref_read_p99_us", "ref_meta_p50_us", "ref_meta_p99_us"]
# Fields that are a pure function of (workload, seed): every repetition,
# the traced run and the other thread count must reproduce them exactly.
DETERMINISTIC = ["events_total", "window_ops", "sim_ops_s", "run_ops"]

HOST_SHARE = ["sim", "net", "storage", "mds", "client", "workload", "obs",
              "other"]
PER_LAYER = [
    ("sim.events", "count"), ("sim.events_per_op", "count/op"),
    ("sim.host_ns_per_event", "ns"), ("sim.rounds", "count"),
    ("sim.events_per_round", "count"), ("sim.busy_s", "s"),
    ("sim.stall_s", "s"), ("sim.max_partition_event_share", "ratio"),
    ("net.rpcs_per_op", "count/op"), ("net.request_bytes_per_op", "B/op"),
    ("net.rpc_rtt_p99_us", "us"), ("net.retries_sent", "count"),
    ("client.cache_hit_ratio", "ratio"), ("client.cache_evictions", "count"),
    ("client.commit_merge_ratio", "ratio"),
    ("client.compound_degree", "count"),
    ("client.commit_daemons_mean", "count"),
    ("client.delegated_alloc_ratio", "ratio"),
    ("client.commit_lag_p99_ms", "ms"),
    ("mds.rpcs", "count"), ("mds.commit_entries", "count"),
    ("mds.journal_records_per_flush", "count"),
    ("mds.shard_commit_spread", "ratio"),
    ("storage.array_ios", "count"), ("storage.merge_ratio", "ratio"),
    ("storage.disk_busy_share", "ratio"),
    ("storage.blocks_written_per_user_block", "ratio"),
    ("storage.io_latency_mean_us", "us"),
    ("fleet.sessions_live", "count"), ("fleet.rss_kib_per_session", "KiB"),
    ("fleet.page_pool_peak_frames", "count"),
    ("fleet.commit_slab_peak", "count"), ("fleet.peak_outstanding", "count"),
    ("fleet.shed", "count"),
    ("blame.client_submit", "ratio"), ("blame.queue_wait", "ratio"),
    ("blame.daemon_checkout", "ratio"), ("blame.rpc_network", "ratio"),
    ("blame.mds_service", "ratio"), ("blame.journal_fsync", "ratio"),
    ("blame.ack_return", "ratio"),
] + [("host_share." + m, "ratio") for m in HOST_SHARE] + [
    ("obs.trace_overhead", "ratio"), ("obs.spans", "count"),
    ("obs.spans_dropped", "count"),
]
# Per-layer figures that are host time: taken from the untraced run.
HOST_LAYER = ["sim.host_ns_per_event", "sim.busy_s", "sim.stall_s"]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


# --------------------------------------------------------------------------
# Build
# --------------------------------------------------------------------------

def build_one(name, extra):
    bdir = os.path.join(BUILD, name)
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, "build.log"), "w") as out:
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", bdir] + extra,
                           stdout=out, stderr=subprocess.STDOUT, check=True)
        subprocess.run(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1)],
                       stdout=out, stderr=subprocess.STDOUT, check=True)
    return os.path.join(bdir, HARNESS)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "core", "testbed.hpp")):
        raise BenchError("library sources not found under %s/src" % ROOT)
    try:
        return {"release": build_one("release", []),
                "profile": build_one("profile", ["-DPERFBENCH_PROFILE=ON"])}
    except subprocess.CalledProcessError as e:
        raise BenchError("build failed (%s); see %s/*/build.log" % (e, BUILD))


# --------------------------------------------------------------------------
# Harness runs
# --------------------------------------------------------------------------

def harness(exe, args, cwd=None):
    proc = subprocess.run([exe] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, cwd=cwd)
    if proc.returncode != 0:
        raise BenchError("%s %s exited %d: %s" % (
            os.path.basename(exe), " ".join(args), proc.returncode,
            proc.stderr.strip()[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def rep_args(workload, seed, threads=None, traced=False, setups=0):
    args = ["--workload", workload, "--seed", str(seed)]
    if threads is not None:
        args += ["--threads", str(threads)]
    if traced:
        args.append("--traced")
    if setups:
        args += ["--extra-setups", str(setups)]
    return args


def host_stamp(rep):
    """nproc, CPU model, compiler, build type and revision of a result."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            m = re.search(r"^model name\s*:\s*(.+)$", f.read(), re.M)
            cpu = m.group(1).strip() if m else cpu
    except OSError:
        pass
    rev = "none"
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    # An exported tree has no git metadata: a digest of the library
    # sources names the revision either way.
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, files in os.walk(src):
        dirnames.sort()
        for fn in sorted(files):
            path = os.path.join(dirpath, fn)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return ("host: nproc=%d cpu=%r compiler=%r build=%s git=%s src_sha256=%s"
            % (os.cpu_count() or 0, cpu, rep.get("compiler"),
               rep.get("build_type"), rev, h.hexdigest()[:16]))


def sim_ops_per_host_s(rep):
    return rep["window_ops"] / rep["run_s"]


def differing(a, b, keys):
    return [k for k in keys if a.get(k) != b.get(k)]


def sim_keys(spec):
    """The simulated fields an untraced repetition reports."""
    if spec.get("latency_from_trace"):
        return DETERMINISTIC
    return DETERMINISTIC + SIM_LATENCY + REFERENCE


def run_untraced(exes, w, seed, seconds):
    spec = WORKLOADS[w]
    threads = spec.get("threads")
    from_trace = spec.get("latency_from_trace", False)
    # With latency from a traced repetition, that repetition is one of the
    # MIN_REPS set-ups (tracing starts only once set-up is over).
    min_untraced = MIN_REPS - 1 if from_trace else MIN_REPS
    reps, problems = [], []
    deadline = time.monotonic() + seconds
    extra = 0 if from_trace else EXTRA_SETUPS
    while len(reps) < min_untraced or time.monotonic() < deadline:
        reps.append(harness(exes["release"], rep_args(w, seed, threads,
                                                      setups=extra)))
    keys = sim_keys(spec)
    for i, rep in enumerate(reps):
        problems += ["rep %d: %s" % (i, c) for c in rep["failed_checks"]]
        problems += ["rep %d differs from rep 0 in %s" % (i, k)
                     for k in differing(reps[0], rep, keys)]
    sim = reps[0]
    setups = [r.get("setup_median_s", r["setup_s"]) for r in reps]
    if from_trace:
        sim = harness(exes["release"], rep_args(w, seed, threads, traced=True))
        setups.append(sim["setup_s"])
        problems += ["traced: %s" % c for c in sim["failed_checks"]]
        problems += ["traced run differs from untraced in %s" % k
                     for k in differing(reps[0], sim, DETERMINISTIC)]
    if "identity_threads" in spec:
        other = harness(exes["release"],
                        rep_args(w, seed, spec["identity_threads"]))
        problems += ["%d-thread run: %s" % (spec["identity_threads"], c)
                     for c in other["failed_checks"]]
        problems += ["%d threads differ from %d in %s" % (
            spec["identity_threads"], threads, k)
            for k in differing(reps[0], other, keys)]

    med = lambda key: statistics.median(r[key] for r in reps)
    metrics = {
        "sim_ops_per_host_s": statistics.median(sim_ops_per_host_s(r) for r in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": med("peak_rss_mib"),
        "sim_ops_s": sim["sim_ops_s"],
    }
    for k in SIM_LATENCY:
        metrics[k] = sim[k]
    log(host_stamp(reps[0]))
    log("%s seed=%d: %d repetitions, %d checks each, run_s=%s" % (
        w, seed, len(reps), reps[0]["checks"],
        ["%.3f" % r["run_s"] for r in reps]))
    log("reference exact per-call percentiles (us): " + ", ".join(
        "%s=%g" % (k[4:], sim[k]) for k in REFERENCE))
    attempted = sum(r["window_ops"] for r in reps)
    return metrics, attempted, problems


# --------------------------------------------------------------------------
# Traced mode: per-layer metrics
# --------------------------------------------------------------------------

def module_of(symbol):
    """The redbud::<module> a profiled function belongs to: its own
    namespace, or for a std:: template the first redbud module among its
    arguments (a hash map of commit tasks is the client's cost)."""
    m = re.match(r"(?:\S+ )?redbud::(\w+)::", symbol) or \
        re.search(r"redbud::(\w+)::", symbol)
    if m and m.group(1) in HOST_SHARE:
        return m.group(1)
    return "other"


def host_share(exe, args):
    """Self time per redbud::<module> namespace from a gprof flat profile."""
    gdir = os.path.join(os.path.dirname(exe), "gmon")
    os.makedirs(gdir, exist_ok=True)
    gmon = os.path.join(gdir, "gmon.out")
    if os.path.exists(gmon):
        os.remove(gmon)
    rep = harness(exe, args, cwd=gdir)
    proc = subprocess.run(["gprof", "-b", "-p", exe, gmon],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        raise BenchError("gprof failed: " + proc.stderr.strip()[-500:])
    shares = {m: 0.0 for m in HOST_SHARE}
    row = re.compile(r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(.+)$")
    for line in proc.stdout.splitlines():
        m = row.match(line)
        if m:
            shares[module_of(m.group(2))] += float(m.group(1))
    total = sum(shares.values())
    if total <= 0:
        raise BenchError("gprof recorded no samples")
    return rep, {m: v / total for m, v in shares.items()}


def run_traced(exes, w, seed):
    spec = WORKLOADS[w]
    threads = spec.get("threads")
    plain = harness(exes["release"], rep_args(w, seed, threads))
    traced = harness(exes["release"], rep_args(w, seed, threads, traced=True))
    profiled, shares = host_share(exes["profile"], rep_args(w, seed, threads))
    problems = []
    for name, rep in (("untraced", plain), ("traced", traced),
                      ("profiled", profiled)):
        problems += ["%s: %s" % (name, c) for c in rep["failed_checks"]]
    problems += ["traced run differs from untraced in %s" % k
                 for k in differing(plain, traced, sim_keys(spec))]
    problems += ["profiled run differs from untraced in %s" % k
                 for k in differing(plain, profiled, sim_keys(spec))]
    metrics = {}
    for name, _ in PER_LAYER:
        if name.startswith("host_share."):
            metrics[name] = shares[name.split(".", 1)[1]]
        elif name == "obs.trace_overhead":
            metrics[name] = traced["run_s"] / plain["run_s"]
        elif name in HOST_LAYER:
            metrics[name] = plain[name]
        else:
            metrics[name] = traced[name]
    log(host_stamp(plain))
    attempted = plain["window_ops"] + traced["window_ops"] + profiled["window_ops"]
    return metrics, attempted, problems


# --------------------------------------------------------------------------
# Self-test
# --------------------------------------------------------------------------

def selftest(exes):
    proc = subprocess.run([exes["release"], "--selftest"])
    ok = proc.returncode == 0
    checks = [
        (module_of("redbud::client::PageCache::invalidate_file(unsigned long)"),
         "client"),
        (module_of("void redbud::sim::Simulation::run_until(redbud::sim::SimTime)"),
         "sim"),
        (module_of("redbud::core::Cluster::start()"), "other"),
        (module_of("std::_Hashtable<unsigned long, std::pair<unsigned long "
                   "const, redbud::client::CommitTask> >::find(unsigned long)"),
         "client"),
        (module_of("std::_Sp_counted_base<(__gnu_cxx::_Lock_policy)2>::_M_release()"),
         "other"),
    ]
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        checks += [
            ([w["name"] for w in spec["workloads"]], list(WORKLOADS)),
            ([(m["name"], m["unit"]) for m in spec["end_to_end"]], END_TO_END),
            ([(m["name"], m["unit"]) for m in spec["per_layer"]], PER_LAYER),
        ]
    for got, want in checks:
        if got != want:
            print("FAIL run.py: got %r, want %r" % (got, want))
            ok = False
    print("run.py selftest: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and a.workload is None:
        ap.error("--workload is required")
    try:
        exes = build()
        if a.selftest:
            return selftest(exes)
        if a.trace:
            metrics, attempted, problems = run_traced(exes, a.workload, a.seed)
            units = dict(PER_LAYER)
        else:
            metrics, attempted, problems = run_untraced(
                exes, a.workload, a.seed, a.seconds)
            units = dict(END_TO_END)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    for p in problems:
        log("CHECK FAILED: " + p)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": 0,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
