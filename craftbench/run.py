#!/usr/bin/env python3
"""craft-bench: the end-to-end SoC simulation benchmark.

Builds craftbench/ (an optimized build of the simulator libraries plus the
craft_bench binary) and runs one workload on the GALS prototype SoC:

  soc_fast    2x2 GALS SoC, sim-accurate Connections, single-threaded engine,
              no instrumentation: the designer's performance-model loop.
  soc_rtl     the same SoC with RTL-cosim emulation at 4 worker threads:
              the slow side of Fig. 6, where the parallel engine matters.
  soc_verify  3x3 GALS SoC with stats, cover and a seeded chaos latency plan:
              one verification trial with every probe hook live.

An operation is one kernel launch (soc::RunWorkload on an elaborated SoC).
Every seed launches the same multiset of kernels; the seed sets the launch
order and, in soc_verify, the fault-plan seed. Each configuration runs in a
fresh process.

  python3 craftbench/run.py --workload soc_fast --seed 1 --seconds 10 --trace 0
  python3 craftbench/run.py ... --out result.json      # keep the full report
  python3 craftbench/run.py --compare before.json after.json
  python3 craftbench/run.py --workload all --seed 1    # the three in turn

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones (a
separate traced run plus layer microkernels). The last stdout line is
{"correct", "attempted", "failed", "metrics"}; the exit code is 0 only when
every launch passed and every check held.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "craftbench"
WORKLOADS = ("soc_fast", "soc_rtl", "soc_verify")
KERNELS = 7  # soc::AllWorkloads()
TIME_LIMIT_S = 175.0
SETUP_PROCESSES = 11  # cold elaborations, each in a fresh process

END_TO_END = (
    ("sim_cycles_per_s", "cycles/s"),
    ("sim_cycles_per_launch", "cycles"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

# Stamp fields that must match before two reports may be compared. The
# commit is recorded but may differ: it is what a comparison compares.
STAMP_KEYS = ("nproc", "cpu_model", "compiler", "build_type", "bench_sha256",
              "workload", "seconds", "trace")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "craftbench-release"


def build():
    """Configures (once) and builds craft_bench; returns the binary path."""
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            raise BenchError("configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return out / "craft_bench"


# ---------------------------------------------------------------- stamp

def tree_sha256(paths):
    h = hashlib.sha256()
    for top in paths:
        for p in sorted(top.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def commit():
    """The git commit when run from a clone, else a digest of the sources."""
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "src-sha256:" + tree_sha256([ROOT / "src"])


def make_stamp(build_doc, args):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": build_doc["compiler"],
        "build_type": build_doc["build_type"],
        "commit": commit(),
        "bench_sha256": tree_sha256([BENCH_DIR]),
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------- runs

class Runner:
    """Runs craft_bench invocations, each in a fresh process, within the
    run's time limit."""

    def __init__(self, binary, deadline):
        self.binary = binary
        self.deadline = deadline

    def run(self, *args):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("time limit reached before " + " ".join(args))
        start = time.monotonic()
        try:
            r = subprocess.run([str(self.binary), *args], capture_output=True,
                               text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError("timed out: craft_bench " + " ".join(args))
        log("craft_bench %s: %.1f s" % (" ".join(args), time.monotonic() - start))
        if r.returncode not in (0, 1) or not r.stdout.strip():
            sys.stderr.write(r.stderr)
            raise BenchError("craft_bench %s exited %d" % (" ".join(args), r.returncode))
        return json.loads(r.stdout.strip().splitlines()[-1])


def soc_args(workload, seed, seconds, *extra):
    return ("soc", "--workload", workload, "--seed", str(seed),
            "--seconds", repr(float(seconds)), *extra)


def check_run(doc, problems, label):
    """Structural checks on one SoC run: every launch passed, the timed
    launches are whole rounds with each kernel equally often."""
    names = [l["name"] for l in doc["launches"]]
    rounds = doc["config"]["rounds"]
    if len(names) != rounds * KERNELS and doc["failed"] == 0:
        problems.append("%s: %d timed launches, expected %d"
                        % (label, len(names), rounds * KERNELS))
    counts = {n: names.count(n) for n in set(names)}
    if len(counts) != KERNELS or len(set(counts.values())) != 1:
        problems.append("%s: launch multiset is not %d kernels equally often" % (label, KERNELS))
    for l in doc["warmup"] + doc["launches"]:
        if not l["ok"]:
            problems.append("%s: launch %s failed: %s" % (label, l["name"], l.get("error", "")))
    if doc["timed_cycles"] <= 0 or doc["timed_wall_s"] <= 0:
        problems.append("%s: no simulated work was timed" % label)


def same_outcome(a, b, problems, what):
    """Per-launch simulated cycles and the GM digest must be identical."""
    if a["fingerprint"]["cycles"] != b["fingerprint"]["cycles"]:
        problems.append(what + ": per-launch cycles differ")
    if a["fingerprint"]["gm_digest"] != b["fingerprint"]["gm_digest"]:
        problems.append(what + ": GM digests differ")


def setup_samples(runner, args, n):
    """n cold elaborations, each in a fresh process."""
    return [runner.run("setup", "--workload", args.workload, "--seed", str(args.seed))
            for _ in range(n)]


def setup_medians(docs):
    return {k: statistics.median(d[k] for d in docs)
            for k in ("setup_s", "setup_elaborate_s", "setup_initial_eval_s")}


def median_round_rate(doc):
    """Median over the timed rounds (every kernel once) of simulated cycles
    per host second: a host-load burst moves one round, not the result."""
    rounds = [doc["launches"][i:i + KERNELS] for i in range(0, len(doc["launches"]), KERNELS)]
    return statistics.median(sum(l["cycles"] for l in r) / sum(l["wall_s"] for l in r)
                             for r in rounds)


def end_to_end(u, setup):
    return {
        "sim_cycles_per_s": median_round_rate(u),
        "sim_cycles_per_launch": u["timed_cycles"] / len(u["launches"]),
        "setup_s": setup["setup_s"],
        "peak_rss_mb": u["peak_rss_mb"],
    }


def per_layer(runner, args, u, setup, problems):
    """The traced mode's metrics, with the unit of each value. Every run in
    this mode, `u` included, is one round of the seed's launch order."""
    w, seed, sec = args.workload, args.seed, args.seconds

    def one_round(workload, *extra):
        return runner.run(*soc_args(workload, seed, sec, "--rounds", "1", *extra))

    # The parallel engine at n=1 and n=4 on this workload, and the 2x2 SoC's
    # Fig. 6 pair (RTL and fast mode at n=1), over the same launches.
    n1 = one_round(w, "--parallelism", "1")
    n4 = u if w == "soc_rtl" else one_round(w, "--parallelism", "4")
    fig_rtl = n1 if w == "soc_rtl" else one_round("soc_rtl", "--parallelism", "1")
    fig_fast = one_round("soc_rtl", "--fast", "--parallelism", "1")
    for label, d in (("n1", n1), ("n4", n4), ("fig6_rtl", fig_rtl), ("fig6_fast", fig_fast)):
        check_run(d, problems, label)
    same_outcome(n1, n4, problems, "n=1 and n=4")

    # Counts and host-time shares come from single-threaded runs, where the
    # process wall times add up to the run's wall time: for soc_rtl its n=1
    # run, otherwise the workload's own configuration.
    c1, single = (n1, ("--parallelism", "1")) if w == "soc_rtl" else (u, ())
    traces = build_dir() / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    spans = traces / ("spans-%s-%d.json" % (w, seed))
    t = one_round(w, "--traced", "--spans", str(spans), *single)
    check_run(t, problems, "traced")
    same_outcome(u, t, problems, "the traced run changed the simulated outcome")
    lay = runner.run("layers", "--seed", str(seed))

    cnt, cyc1 = c1["counters"], c1["timed_cycles"]
    tc, run_wall, tcyc = t["counters"], t["counters"]["run_wall_s"], t["timed_cycles"]
    cost = lay["min"]
    ns = 1e-9

    def share(key):
        return tc["wall." + key] / run_wall

    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    for k in ("fiber_roundtrip_ns", "timed_event_ns", "clock_edge_ns", "signal_update_ns",
              "signal_write_ns"):
        put("kernel." + k, cost["kernel." + k], "ns")
    for k in ("thread_dispatches", "method_dispatches", "deltas", "timed_fired"):
        put("kernel.%s_per_cycle" % k, cnt[k] / cyc1, "count/cycle")
    put("kernel.thread_share", share("thread"), "fraction")
    put("kernel.method_share", share("method"), "fraction")
    put("kernel.self_share", 1.0 - share("thread") - share("method"), "fraction")
    put("kernel.fiber_share_est",
        cnt["thread_dispatches"] * cost["kernel.fiber_roundtrip_ns"] * ns / c1["timed_wall_s"],
        "fraction")
    put("kernel.setup_elaborate_s", setup["setup_elaborate_s"], "s")
    put("kernel.setup_initial_eval_s", setup["setup_initial_eval_s"], "s")
    put("par.speedup_n4", n1["timed_wall_s"] / n4["timed_wall_s"], "x")
    put("par.cores_busy", n4["cpu_s"] / n4["timed_wall_s"], "cores")
    put("connections.transfer_ns", cost["connections.transfer_ns"], "ns")
    put("connections.transfer_probed_ns", cost["connections.transfer_probed_ns"], "ns")
    put("connections.transfers_per_cycle", tc["channel_transfers"] / tcyc, "count/cycle")
    put("connections.stall_cycles_per_cycle", tc["stall_cycles"] / tcyc, "count/cycle")
    put("gals.crossing_transfer_ns", cost["gals.crossing_transfer_ns"], "ns")
    put("gals.crossing_share", share("gals"), "fraction")
    put("gals.transfers_per_cycle", tc["crossing_transfers"] / tcyc, "count/cycle")
    put("matchlib.whvc_hop_ns", cost["matchlib.whvc_hop_ns"], "ns")
    put("matchlib.router_share", share("router"), "fraction")
    put("matchlib.fp_muladd_ns", cost["matchlib.fp_muladd_ns"], "ns")
    put("riscv.instr_ns", cost["riscv.instr_ns"], "ns")
    put("riscv.instret_per_cycle", u["counters"]["instret"] / u["timed_cycles"], "count/cycle")
    put("riscv.ctrl_share", share("ctrl"), "fraction")
    put("soc.pe_share", share("pe"), "fraction")
    put("soc.gm_share", share("gm"), "fraction")
    put("soc.ni_share", share("ni"), "fraction")
    put("soc.rtl_load_share", share("rtl_load"), "fraction")
    put("soc.noc_flits_per_cycle", u["counters"]["noc_flits"] / u["timed_cycles"], "count/cycle")
    put("soc.fig6_wall_ratio", fig_rtl["timed_wall_s"] / fig_fast["timed_wall_s"], "x")
    errors = [abs(r["cycles"] - f["cycles"]) / r["cycles"]
              for r, f in zip(fig_rtl["launches"], fig_fast["launches"])]
    put("soc.fig6_cycle_err_pct", 100.0 * statistics.mean(errors), "%")
    put("chaos.injections_per_cycle", u["counters"]["chaos_injections"] / u["timed_cycles"],
        "count/cycle")
    put("bench.trace_overhead_pct", 100.0 * (t["timed_wall_s"] / c1["timed_wall_s"] - 1.0), "%")
    # Kernel-mechanism cost model: counts of the single-threaded run times
    # each mechanism's microkernel cost, over that run's wall time. A method
    # dispatch is charged the wake a signal update adds to a bare write.
    wake_ns = cost["kernel.signal_update_ns"] - cost["kernel.signal_write_ns"]
    explained = (cnt["thread_dispatches"] * cost["kernel.fiber_roundtrip_ns"]
                 + cnt["timed_fired"] * cost["kernel.timed_event_ns"]
                 + cnt["rtl_signal_writes"] * cost["kernel.signal_write_ns"]
                 + cnt["method_dispatches"] * wake_ns
                 + cnt["instret"] * cost["riscv.instr_ns"]) * ns / c1["timed_wall_s"]
    put("bench.explained_fraction", explained, "fraction")
    runs = {id(d): d for d in (u, t, n1, n4, fig_rtl, fig_fast)}  # soc_rtl reuses some
    return m, lay["noise_pct"], list(runs.values())


# ---------------------------------------------------------------- compare

def compare(path_a, path_b):
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    diff = [k for k in STAMP_KEYS if a["stamp"].get(k) != b["stamp"].get(k)]
    if diff:
        for k in diff:
            log("stamp differs: %s: %r vs %r" % (k, a["stamp"].get(k), b["stamp"].get(k)))
        log("refusing to compare runs with different stamps")
        return 2
    print("commit: %s -> %s" % (a["stamp"]["commit"], b["stamp"]["commit"]))
    for name, va in a["metrics"].items():
        vb = b["metrics"].get(name)
        if vb is None:
            continue
        delta = 100.0 * (vb["value"] / va["value"] - 1.0) if va["value"] else float("nan")
        print("%-36s %14.6g -> %14.6g %s (%+.2f%%)" % (name, va["value"], vb["value"],
                                                      va["unit"], delta))
    same = a["fingerprint"] == b["fingerprint"]
    print("fingerprint: " + ("identical" if same else "DIFFERS"))
    return 0


# ---------------------------------------------------------------- main

def run_workload(args, workload):
    """Runs one workload and prints its report lines. Returns the result
    object of the last stdout line, or None when the run broke off."""
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        runner = Runner(build(), deadline)
        wargs = argparse.Namespace(**{**vars(args), "workload": workload})
        extra = ("--wrong-golden", args.wrong_golden) if args.wrong_golden else ()
        # Set-up samples before and after the run, so one host-load episode
        # cannot cover them all.
        before = setup_samples(runner, wargs, SETUP_PROCESSES // 2)
        if args.trace:
            extra += ("--rounds", "1")
        u = runner.run(*soc_args(workload, args.seed, args.seconds, *extra))
        after = setup_samples(runner, wargs, SETUP_PROCESSES - 1 - len(before))
        setup = setup_medians(before + [u] + after)
        problems = []
        check_run(u, problems, "run")
        noise = {}
        runs = [u]
        if args.trace == 0:
            metrics = {k: (v, dict(END_TO_END)[k]) for k, v in end_to_end(u, setup).items()}
        else:
            metrics, noise, runs = per_layer(runner, wargs, u, setup, problems)
    except BenchError as e:
        log("craft-bench: " + str(e))
        return None

    stamp = make_stamp(u["build"], wargs)
    attempted = sum(d["attempted"] for d in runs)
    failed = sum(d["failed"] for d in runs)
    correct = failed == 0 and not problems
    for p in problems:
        log("check failed: " + p)
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    print("fingerprint: " + json.dumps(u["fingerprint"], sort_keys=True))
    print("launches: %d attempted, %d failed" % (attempted, failed))
    for name, (value, unit) in metrics.items():
        floor = " (noise floor %.1f%%)" % noise[name] if name in noise else ""
        print("%-36s %.6g %s%s" % (name, value, unit, floor))
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": un} for k, (v, un) in metrics.items()},
    }
    if args.out:
        report = {"schema": "craft-bench-v1", "stamp": stamp, "seed": args.seed,
                  "fingerprint": u["fingerprint"], "noise_pct": noise, **result}
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return result


def main(argv):
    ap = argparse.ArgumentParser(description="craft-bench SoC simulation benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the full craft-bench-v1 report here")
    ap.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    ap.add_argument("--wrong-golden", default="", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None or args.seed < 0 or args.seconds < 1:
        ap.error("--workload, a seed >= 0 and --seconds >= 1 are required")
    if args.workload == "all" and args.out:
        ap.error("--out needs a single --workload")

    results = {}
    for w in WORKLOADS if args.workload == "all" else (args.workload,):
        if args.workload == "all":
            print("== " + w)
        results[w] = run_workload(args, w)
        if results[w] is None:
            return 1
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {w + "/" + k: m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
