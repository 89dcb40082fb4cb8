#!/usr/bin/env python3
"""The repository benchmark: IGen's two delivery paths, end to end.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest [--seed N]

Workloads:
  eval-array     igen --serve, 2 connections, eval of resident array kernels
  eval-scalar    igen --serve, 3 connections, eval of scalar loop kernels
  compile-churn  igen --serve, 2 connections, seeded module compiles + evals
  aot-kernels    igen on bench kernels, host-compiled, generated vs native

The first run builds `igen` and the benchmark's own `perfbench` binary
from the checkout's sources (CMake, into $CARGO_TARGET_DIR or
.bench_build). Every answer is checked against a binary128 oracle. The
last line of stdout is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1). A containment violation exits 1. See
perfbench/README.md for the metric definitions.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ["eval-array", "eval-scalar", "compile-churn", "aot-kernels"]
# IGEN_SERVE_CACHE of the daemon and of the traced replay's cores. It is
# below compile-churn's working set, so inserts evict, yet large enough
# that a program is not evicted between its compile and the eval that
# follows it.
CACHE_CAPACITY = 64
SERVE_WORKERS = 2
# Set-ups per run (setup_s is their median): the daemon's are cheap, the
# AOT one runs the host compiler. Every daemon life is a set-up and then
# measures for an equal share of --seconds; each serve figure is the
# median over the lives, so a slow spell of the host that spans one or
# two lives does not set the figure.
SERVE_LIVES, AOT_SETUPS = 5, 3
# The traced replay's in-process breakdown must describe the daemon: its
# handleFrame mean must be within this factor of the daemon's own mean.
FIDELITY_FACTOR = 2.0

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_us": "us",
    "daemon_peak_rss_mb": "MB",
    "accuracy_bits_mean": "bits",
    "slowdown_geomean": "x",
}

AOT_F64 = ["fft", "fft_avx", "gemm", "gemm_avx", "potrf", "potrf_avx", "ffnn",
           "ffnn_avx", "mvm", "henon", "horner", "pade", "gauss"]
AOT_DD = ["fft", "gemm", "potrf", "ffnn", "mvm", "henon"]
AOT_CONFIGS = ([(k, "f64") for k in AOT_F64] + [("vmul", "batch")] +
               [(k, "dd") for k in AOT_DD])

SERVE_LAYERS = {
    "transport.overhead_us": "us",
    "transport.queue_full": "count",
    "json.parse_us": "us",
    "json.request_bytes": "B",
    "core.render_us": "us",
    "core.response_bytes": "B",
    "core.handle_us": "us",
    "core.daemon_eval_us": "us",
    "core.daemon_compile_us": "us",
    "eval.us": "us",
    "eval.ops": "count",
    "eval.ns_per_op": "ns",
    "cache.hit_ratio": "ratio",
    "cache.evictions": "count",
    "cache.lookup_us": "us",
    "frontend.parse_us": "us",
    "frontend.sema_us": "us",
    "transform.lower_us": "us",
    "pipeline.compile_us": "us",
    "transform.emitted_bytes": "B",
    "trace.overhead_us": "us",
    "replay.fidelity_ratio": "ratio",
}
OPT_LAYERS = {
    "opt.sign_specialized": "count",
    "opt.fma_fused": "count",
    "opt.cse_temps": "count",
    "opt.hoisted": "count",
}
AOT_LAYERS = {}
for _k, _p in AOT_CONFIGS:
    AOT_LAYERS[f"aot.{_k}.{_p}.cycles"] = "cycles"
    AOT_LAYERS[f"aot.{_k}.{_p}.slowdown"] = "x"
    AOT_LAYERS[f"aot.{_k}.{_p}.accuracy_bits"] = "bits"
for _k in AOT_F64 + ["vmul"]:
    AOT_LAYERS[f"aot.{_k}.native_cycles"] = "cycles"
AOT_LAYERS["aot.dd_slowdown_geomean"] = "x"
PER_LAYER = {**SERVE_LAYERS, **OPT_LAYERS, **AOT_LAYERS}


class BenchError(Exception):
    """A failure of the benchmark itself (no result is printed)."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


#
# Build
#

def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Builds igen and perfbench; returns the CMake build directory."""
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"no {need} next to perfbench/: run from a "
                             "full checkout of the repository")
    cdir = os.path.join(build_dir(), "cmake")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not any(os.path.exists(os.path.join(cdir, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", ROOT, "-B", cdir, *gen,
               "-DCMAKE_BUILD_TYPE=Release",
               "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE,
                                                        "CMakeLists.txt")]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", cdir, "--target", "igen", "perfbench",
           "-j", str(min(4, os.cpu_count() or 1))]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return cdir


def igen_binary(cdir):
    with open(os.path.join(cdir, "perfbench", "igen_path.txt")) as f:
        return f.read().strip()


#
# Serve workloads
#

def pinning():
    """(client CPUs, daemon CPUs): the client on a CPU of its own, the
    daemon's reactor and workers on the others, so the load generator
    never competes with the daemon for a CPU and the placement is the
    same in every run. The pinned client busy-polls. With fewer than 4
    CPUs nothing is pinned (None)."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 1 + 1 + SERVE_WORKERS:
        return None
    return cpus[-1:], cpus[:-1]


def spread_threads(pid, cpus):
    """Gives each of the daemon's threads one CPU of `cpus`, the busiest
    (most CPU time in the set-up and the first warm-up frames) first, so
    the reactor and each worker get a CPU of their own. Left to the
    kernel, a small VM can keep two workers stacked on one CPU for the
    daemon's whole life while the others idle: that life then serves
    about half as many requests, and which lives it hits is a lottery."""
    busy = []
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as f:
                busy.append((int(f.read().split()[0]), int(tid)))
        except OSError:
            pass  # the thread ended
    busy.sort(reverse=True)
    for k, (_, tid) in enumerate(busy):
        try:
            os.sched_setaffinity(tid, [cpus[k % len(cpus)]])
        except OSError:
            pass  # the thread ended


def serve_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("IGEN_")}
    env["IGEN_SERVE_CACHE"] = str(CACHE_CAPACITY)
    return env


def peak_rss_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for the daemon")


def stop_daemon(proc):
    """Stops the daemon with SIGTERM (its graceful drain); kills it if
    it does not exit."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def serve_once(cdir, run_dir, args, seconds):
    """One daemon life: launch, client set-up, and a measurement of
    `seconds`. Returns (set-up seconds, client result, rss MB)."""
    igen = igen_binary(cdir)
    pb = os.path.join(cdir, "perfbench", "perfbench")
    sock = os.path.join(run_dir, "d.sock")
    if os.path.exists(sock):
        os.unlink(sock)
    out = os.path.join(run_dir, "client.json")
    cmd = [pb, "client", "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(seconds), "--socket",
           "d.sock", "--out", out]
    placement = pinning()
    pin_client = pin_daemon = None
    if placement:
        pin_client = lambda: os.sched_setaffinity(0, placement[0])
        pin_daemon = lambda: os.sched_setaffinity(0, placement[1])
    # The client computes its frames and oracle values first ("PREPARED")
    # and then keeps trying to connect; set-up is timed from the daemon's
    # launch to the end of the client's warm-up ("READY"). Early in the
    # warm-up ("PLACE") the daemon's threads are placed, and the client
    # goes on when it reads a line on stdin.
    client = subprocess.Popen(cmd, cwd=run_dir, stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, text=True,
                              preexec_fn=pin_client)
    daemon = None
    with open(os.path.join(run_dir, "daemon.log"), "a") as dlog:
        try:
            if client.stdout.readline().strip() != "PREPARED":
                raise BenchError("client preparation failed")
            t0 = time.perf_counter()
            daemon = subprocess.Popen(
                [igen, "--serve=d.sock", f"--serve-workers={SERVE_WORKERS}"],
                cwd=run_dir, env=serve_env(),
                stdout=subprocess.DEVNULL, stderr=dlog,
                preexec_fn=pin_daemon)
            if client.stdout.readline().strip() != "PLACE":
                raise BenchError("client warm-up failed")
            if placement:
                spread_threads(daemon.pid, placement[1])
            client.stdin.write("placed\n")
            client.stdin.close()
            line = client.stdout.readline()
            setup = time.perf_counter() - t0
            if line.strip() != "READY":
                raise BenchError("client set-up failed")
            if client.wait(timeout=seconds + 60) != 0:
                raise BenchError("client failed")
            rss = peak_rss_mb(daemon.pid)
            with open(out) as f:
                return setup, json.load(f), rss
        finally:
            if client.poll() is None:
                client.kill()
                client.wait()
            if daemon is not None:
                stop_daemon(daemon)


def stat_delta(pre, post, *path):
    a, b = pre["stats"], post["stats"]
    for key in path:
        a, b = a[key], b[key]
    return b - a


def check_stats(run_dir, result):
    """Schema, fenv and reconciliation checks on the final stats report.
    Returns (problems, operations the daemon and client disagree on)."""
    problems = []
    post = result["stats_post"]
    path = os.path.join(run_dir, "stats.json")
    with open(path, "w") as f:
        json.dump(post, f)
    schema = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "check_serve_schema.py"),
         path], stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if schema.returncode != 0:
        problems.append("stats schema: " + schema.stdout.strip())
    stats = post.get("stats", {})
    if stats.get("fenv", {}).get("violations") != 0:
        problems.append("fenv.violations is not 0")
    reqs = stats.get("requests", {})
    want_eval = result["sent_eval"] - result["qfull_eval"]
    want_compile = (result["sent_compile"] + result["setup_compile"] -
                    result["qfull_compile"])
    mismatch = (abs(reqs.get("eval", {}).get("count", 0) - want_eval) +
                abs(reqs.get("compile", {}).get("count", 0) - want_compile))
    if mismatch:
        problems.append(f"daemon counts differ from the client's by "
                        f"{int(mismatch)} operations")
    return problems, int(mismatch)


def daemon_means(result):
    """Daemon-side per-endpoint means over the measured phase (us)."""
    pre, post = result["stats_pre"], result["stats_post"]
    out = {}
    for ep in ("eval", "compile"):
        n = stat_delta(pre, post, "latency_us", ep, "count")
        us = stat_delta(pre, post, "latency_us", ep, "total_us")
        out[ep] = (us / n if n else 0.0, n, us)
    return out


def run_serve(args, cdir, run_dir):
    setups, results, rss = [], [], []
    for _ in range(SERVE_LIVES):
        setup, res, r = serve_once(cdir, run_dir, args,
                                   args.seconds / SERVE_LIVES)
        setups.append(setup)
        results.append(res)
        rss.append(r)
    problems, attempted, failed, violations = [], 0, 0, 0
    for res in results:
        p, mismatch = check_stats(run_dir, res)
        problems += p
        violations += int(res["violations"])
        attempted += int(res["attempted"])
        failed += int(res["failed"]) + mismatch
        if res.get("first_failure"):
            problems.append("first failure: " + res["first_failure"])
        log(f"daemon life: {res['throughput_rps']:.0f} requests/s, "
            f"one-second windows {res['window_rps_min']:.0f} to "
            f"{res['window_rps_max']:.0f}")

    def median(key):
        return statistics.median(res[key] for res in results)

    e2e = {
        "setup_s": statistics.median(setups),
        "throughput_rps": median("throughput_rps"),
        "latency_p50_us": median("latency_p50_us"),
        "daemon_peak_rss_mb": statistics.median(rss),
        "accuracy_bits_mean": median("accuracy_bits_mean"),
        "slowdown_geomean": median("slowdown_geomean"),
    }
    info = {"samples": sum(res["samples"] for res in results),
            "latency_p99_us": median("latency_p99_us"),
            "error_rate": failed / attempted}
    layers = None
    if args.trace:
        layers, fidelity_ok = serve_layers(args, cdir, run_dir, results[-1])
        if not fidelity_ok:
            problems.append("replay fidelity outside the bound")
    return e2e, layers, attempted, failed, violations, problems, info


def serve_layers(args, cdir, run_dir, result):
    pb = os.path.join(cdir, "perfbench", "perfbench")
    out = os.path.join(run_dir, "replay.json")
    spans_dir = os.path.join(build_dir(), "perfbench", "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.json")
    cmd = [pb, "replay", "--workload", args.workload, "--seed",
           str(args.seed), "--budget", str(min(args.seconds, 10)),
           "--out", out, "--spans", spans]
    if subprocess.run(cmd, env=serve_env(), timeout=150).returncode != 0:
        raise BenchError("traced replay failed")
    with open(out) as f:
        rep = json.load(f)
    means = daemon_means(result)
    n_all = means["eval"][1] + means["compile"][1]
    daemon_mean = ((means["eval"][2] + means["compile"][2]) / n_all
                   if n_all else 0.0)
    fidelity = rep["replay.handle_untraced_us"] / daemon_mean
    pre, post = result["stats_pre"], result["stats_post"]
    hits = stat_delta(pre, post, "cache", "hits")
    misses = stat_delta(pre, post, "cache", "misses")
    layers = {name: 0.0 for name in PER_LAYER}
    layers.update({k: v for k, v in rep.items() if k in PER_LAYER})
    layers.update({
        "transport.overhead_us": result["latency_mean_us"] - daemon_mean,
        "transport.queue_full": result["queue_full"],
        "core.daemon_eval_us": means["eval"][0],
        "core.daemon_compile_us": means["compile"][0],
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.evictions": stat_delta(pre, post, "cache", "evictions"),
        "replay.fidelity_ratio": fidelity,
    })
    ok = 1.0 / FIDELITY_FACTOR <= fidelity <= FIDELITY_FACTOR
    log(f"spans written to {spans}")
    return layers, ok


#
# aot-kernels
#

def kernel_source(name, old, new):
    with open(os.path.join(HERE, "kernels", name + ".c")) as f:
        return f.read().replace(old, new)


def aot_sources():
    """The translation units: (file, text, igen flags or None for native)."""
    plain = ["fft", "gemm", "potrf", "ffnn", "mvm", "henon", "horner",
             "pade", "gauss"]
    avx = ["fft", "gemm", "potrf", "ffnn"]
    f64 = "".join(kernel_source(k, "k_", "sv_") for k in plain)
    f64 += "".join(kernel_source(k + "_avx", "kv_", "vv_") for k in avx)
    dd = "".join(kernel_source(k, "k_", "svdd_") for k in AOT_DD)
    native = "".join(kernel_source(k, "k_", "base_") for k in plain)
    native += "".join(kernel_source(k + "_avx", "kv_", "basev_")
                      for k in avx)
    native += kernel_source("vmul", "k_", "nb_")
    return [("f64", f64, []), ("dd", dd, ["--precision=dd"]),
            ("batch", kernel_source("vmul", "k_", "sb_"), ["--batch-loops"]),
            ("native", native, None)]


def run_measured(cmd, err_path):
    """Runs `cmd` with stderr to `err_path`; returns (exit code, the
    process's peak RSS in MB)."""
    with open(err_path, "w") as err:
        proc = subprocess.Popen(cmd, stderr=err)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def aot_setup(cdir, out_dir):
    """igen + host build of every translation unit; returns (seconds,
    igen's largest peak RSS in MB)."""
    os.makedirs(out_dir, exist_ok=True)
    igen = igen_binary(cdir)
    with open(os.path.join(cdir, "perfbench", "aot_build.txt")) as f:
        compiler, *flags = [ln for ln in f.read().split("\n") if ln]
    flags += ["-DNDEBUG", "-fPIC", "-shared"]

    def one(unit):
        name, text, igen_flags = unit
        src = os.path.join(out_dir, name + ".c")
        with open(src, "w") as f:
            f.write(text)
        cpp = os.path.join(out_dir, name + ".cpp")
        rss = 0.0
        if igen_flags is None:
            shutil.copyfile(src, cpp)
        else:
            err = os.path.join(out_dir, name + ".igen.log")
            code, rss = run_measured([igen, src, "-o", cpp, *igen_flags],
                                     err)
            if code != 0:
                with open(err) as f:
                    raise BenchError(f"igen failed on {name}: {f.read()}")
        # The kernels have C++ linkage; export each one's address under
        # an unmangled name the runner can dlsym().
        with open(cpp, "a") as f:
            for fn in re.findall(r"^\w[\w ]*?\b(\w+)\(", text, re.M):
                f.write(f'extern "C" void *pb_sym_{fn}(void) '
                        f'{{ return (void *)&{fn}; }}\n')
        extra = ["-DIGEN_BATCH_RUNTIME"] if name == "batch" else []
        r = subprocess.run([compiler, *flags, *extra, cpp, "-o",
                            os.path.join(out_dir, name + ".so")],
                           stderr=subprocess.PIPE, text=True)
        if r.returncode != 0:
            raise BenchError(f"host build of {name} failed: {r.stderr}")
        return rss

    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=4) as pool:
        rss = max(pool.map(one, aot_sources()))
    return time.perf_counter() - t0, rss


def opt_counts(out_dir):
    """Rewrites of src/opt, counted in the emitted C."""
    counts = dict.fromkeys(OPT_LAYERS, 0)
    for name in ("f64", "dd", "batch"):
        with open(os.path.join(out_dir, name + ".cpp")) as f:
            text = f.read()
        counts["opt.sign_specialized"] += len(
            re.findall(r"\bia_(?:mul|div|fma)_[pnu]{1,2}_", text))
        counts["opt.fma_fused"] += len(re.findall(r"\bia_fma_", text))
        counts["opt.cse_temps"] += len(set(re.findall(r"\b_cse\d+\b", text)))
        counts["opt.hoisted"] += len(set(re.findall(r"\b_hoist\d+\b", text)))
    return counts


def run_aot(args, cdir, run_dir):
    setups, rss = zip(*(aot_setup(cdir, os.path.join(run_dir, f"setup{k}"))
                        for k in range(AOT_SETUPS)))
    out_dir = os.path.join(run_dir, f"setup{AOT_SETUPS - 1}")
    pb = os.path.join(cdir, "perfbench", "perfbench")
    out = os.path.join(run_dir, "aot.json")
    r = subprocess.run([pb, "aot", "--dir", out_dir, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--out", out],
                       stdout=subprocess.DEVNULL, timeout=args.seconds + 150)
    if r.returncode != 0:
        raise BenchError("aot runner failed")
    with open(out) as f:
        res = json.load(f)
    e2e = {k: res[k] for k in END_TO_END
           if k not in ("setup_s", "daemon_peak_rss_mb")}
    e2e["setup_s"] = statistics.median(setups)
    # No daemon here: the program's process is igen itself.
    e2e["daemon_peak_rss_mb"] = statistics.median(rss)
    problems = []
    if res.get("first_failure"):
        problems.append("first failure: " + res["first_failure"])
    layers = None
    if args.trace:
        layers = {name: 0.0 for name in PER_LAYER}
        layers.update({k: v for k, v in res["per_config"].items()
                       if k in PER_LAYER})
        layers.update(opt_counts(out_dir))
    info = {"samples": res["samples"],
            "latency_p99_us": res["latency_p99_us"],
            "dd_slowdown_geomean":
                res["per_config"]["aot.dd_slowdown_geomean"],
            "error_rate": res["failed"] / res["attempted"]}
    return (e2e, layers, int(res["attempted"]), int(res["failed"]),
            int(res["violations"]), problems, info)


#
# Entry point
#

def selftest(cdir, seed):
    pb = os.path.join(cdir, "perfbench", "perfbench")
    r = subprocess.run([pb, "selftest", "--seed", str(seed)],
                       stdout=sys.stderr)
    return r.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="check the compile-churn generator and exit")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        cdir = build()
        if args.selftest:
            return 0 if selftest(cdir, args.seed) else 1
        run_dir = os.path.join(build_dir(), "perfbench",
                               f"run-{args.workload}-{os.getpid()}")
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        try:
            if args.workload == "compile-churn" and not selftest(cdir,
                                                                 args.seed):
                raise BenchError("module generator self-test failed")
            runner = run_aot if args.workload == "aot-kernels" else run_serve
            (e2e, layers, attempted, failed, violations, problems,
             info) = runner(args, cdir, run_dir)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    except (BenchError, OSError, subprocess.SubprocessError,
            KeyError, ValueError) as err:
        log(f"error: {err}")
        return 2

    for p in problems:
        log(p)
    tag = f"{args.workload} seed={args.seed}"
    for name, unit in END_TO_END.items():
        print(f"{tag}: {name} = {e2e[name]:.6g} {unit}")
    # p99 is printed but is not a metric of the result: on a shared host,
    # slow spells move the serve p99 from run to run by more than the
    # largest bound (0.25) a metric may have.
    print(f"{tag}: latency_p99_us = {info['latency_p99_us']:.6g} us "
          "(not gated)")
    if "dd_slowdown_geomean" in info:
        print(f"{tag}: dd_slowdown_geomean = "
              f"{info['dd_slowdown_geomean']:.6g} x "
              "(per-layer aot.dd_slowdown_geomean)")
    print(f"{tag}: error_rate = {info['error_rate']:.6g} "
          f"({failed} of {attempted} operations; latency samples: "
          f"{int(info['samples'])})")
    if layers is not None:
        for name, unit in PER_LAYER.items():
            print(f"{tag}: {name} = {layers[name]:.6g} {unit}")
    chosen = (PER_LAYER if args.trace else END_TO_END)
    values = layers if args.trace else e2e
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in chosen.items()}
    correct = failed == 0 and violations == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
