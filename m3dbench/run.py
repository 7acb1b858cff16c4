#!/usr/bin/env python3
"""Repository benchmark: build m3dbench, run one workload, print the result.

    python3 m3dbench/run.py --workload paper_sweep --seed 7 --seconds 50 --trace 0
    python3 m3dbench/run.py --selftest

Run it from the root of a checkout. It builds m3dbench/ (which compiles
the program's libraries from src/) into .bench_build/, runs the m3dbench
binary with a pool of nproc - 1 workers and every other M3D_* variable unset,
and prints two lines on stdout: a JSON object with provenance, every
sample and the workload's full QoR, then the result line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). See README.md for what each one means.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD, "m3dbench")
BINARY = os.path.join(BUILD_DIR, "m3dbench")
DIGESTS = os.path.join(BUILD, "digests.json")
WORKLOADS = ("paper_sweep", "explore", "mesh_structural")
# Generator scale per workload (README.md, "Workloads" says why).
SCALE = {"paper_sweep": 0.125, "explore": 0.25, "mesh_structural": 32.0}
# Set-up-only processes per CPU and run. With the measured process they
# give the set-up samples that setup_s is the median of.
SETUP_ROUNDS = 2
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print("m3dbench: " + msg, file=sys.stderr, flush=True)


def cpus():
    """The CPUs this process may run on."""
    return sorted(os.sched_getaffinity(0))


def nproc():
    return len(cpus())


def build():
    """Configure once, then build incrementally (a no-op when current).
    Compiler temporaries go under .bench_build too, not to /tmp."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no program sources under src/ in " + ROOT)
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            raise BenchError("configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "-j", str(nproc())]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        raise BenchError("build failed")


def program_env():
    """The measured process sees no M3D_* knob except the pool width."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("M3D_")}
    env["M3D_THREADS"] = str(max(1, nproc() - 1))
    return env


def source_digest():
    """Content hash of the program and benchmark sources: the identity of
    "this commit" for the determinism guard, also in a checkout that is
    not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "m3dbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def drive(args, stamp=False, cpu=None):
    """Run the m3dbench binary; return its last stdout line parsed as JSON.
    With `stamp`, pass the spawn time, where the binary's set-up time
    starts. With `cpu`, the process runs on that CPU only."""
    mask = cpus()
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})  # the child inherits this thread's mask
    try:
        cmd = [BINARY] + args
        if stamp:
            cmd += ["--spawn-ns", str(time.monotonic_ns())]
        proc = subprocess.Popen(cmd, env=program_env(), stdout=subprocess.PIPE,
                                text=True)
    finally:
        os.sched_setaffinity(0, mask)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("m3dbench timed out: " + " ".join(args))
    if proc.returncode != 0:
        raise BenchError("m3dbench exited with %d: %s" % (proc.returncode, " ".join(args)))
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("m3dbench printed nothing: " + " ".join(args))
    return json.loads(lines[-1])


def setup_sample(inputs, i):
    """Set-up seconds of a set-up-only process. The i-th one runs on CPU
    i mod nproc: the CPUs of a virtual machine on a shared host can
    differ in speed by a third, and a fixed mix of them keeps the median
    from following wherever the scheduler happened to put a run's
    processes."""
    cpu = cpus()[i % nproc()]
    return drive(["setup"] + inputs, stamp=True, cpu=cpu)["setup_s"]


class Served:
    """A `m3dbench run` process: set up once, then one answer per command.
    A watchdog kills it if the run outlasts RUN_TIMEOUT_S."""

    def __init__(self, args):
        cmd = [BINARY, "run"] + args + ["--spawn-ns", str(time.monotonic_ns())]
        self.proc = subprocess.Popen(cmd, env=program_env(), text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.watchdog = threading.Timer(RUN_TIMEOUT_S, self.proc.kill)
        self.watchdog.start()

    def read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("m3dbench run stopped (exit %s)" % self.proc.wait())
        return json.loads(line)

    def ask(self, command):
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self):
        """Stop the process if it still runs, and wait for it."""
        self.watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for f in (self.proc.stdin, self.proc.stdout):
            try:
                f.close()
            except OSError:
                pass


def run_binary(workload, seed, seconds, trace, scale):
    """Set the workload up in the measured process, run one warm-up pass,
    then timed passes until `seconds` have passed, and time set-up-only
    processes between them. Returns the measured process's output, with
    every pass and "setup_s" the list of every set-up sample."""
    inputs = ["--workload", workload, "--seed", str(seed), "--scale", repr(scale)]
    path, mesh, served = None, None, None
    try:
        if workload == "mesh_structural":
            # The mesh is written as Verilog before the measured processes
            # start, so they receive only the generated input file.
            path = os.path.join(BUILD, "inputs", "mesh-%d.v" % os.getpid())
            os.makedirs(os.path.dirname(path), exist_ok=True)
            mesh = drive(["write-mesh", "--seed", str(seed), "--out", path,
                          "--scale", repr(scale)])
            mesh["verilog_bytes"] = os.path.getsize(path)
            inputs += ["--input", path]
        served = Served(inputs)
        raw = served.read()
        if trace and raw["unwrapped"]:
            raise BenchError("cannot trace: entry points not wrapped: "
                             + ", ".join(raw["unwrapped"]) + " (update probe.cpp)")
        # Set-up-only samples: SETUP_ROUNDS on every CPU, spread evenly over
        # the measuring time so that their median is not one moment of a
        # drifting host.
        extra = SETUP_ROUNDS * nproc()
        setups = [raw["setup_s"]]
        passes = [dict(served.ask("pass"), timed=False)]
        t0 = time.monotonic()
        while True:
            passes.append(dict(served.ask("pass"), timed=True))
            elapsed = time.monotonic() - t0
            if elapsed >= seconds:
                break
            if len(setups) - 1 < extra * elapsed / seconds:
                setups.append(setup_sample(inputs, len(setups) - 1))
        while len(setups) - 1 < extra:
            setups.append(setup_sample(inputs, len(setups) - 1))
        if trace:
            walls = [p["wall_s"] for p in passes if p["timed"]]
            traced = served.ask("trace %r" % statistics.median(walls))
            raw["layers"] = traced.pop("layers")
            passes.append(dict(traced, timed=False))
        raw.update(served.ask("finish"))
        if served.proc.wait() != 0:
            raise BenchError("m3dbench run exited with %d" % served.proc.returncode)
    finally:
        if served:
            served.close()
        if path and os.path.exists(path):
            os.remove(path)
    raw["setup_s"] = setups
    raw["passes"] = passes
    raw["input"] = mesh
    return raw


def judge_ops(raw, source):
    """Determinism guard: an op passes when it raised nothing, its metrics
    are finite, and its digest equals the same op's digest in every other
    run of this source tree (earlier processes via .bench_build, earlier
    passes of this process). The store keeps each source tree's digests
    apart, and a lock serializes concurrent runs' updates. Returns
    (attempted, failed, failures)."""
    os.makedirs(BUILD, exist_ok=True)
    with open(DIGESTS + ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            with open(DIGESTS) as f:
                store = json.load(f)
        except (OSError, ValueError):
            store = {}
        known = store.setdefault(source, {})
        prefix = "%s|%s|%s|" % (raw["workload"], raw["seed"], raw["scale"])
        attempted, failures = 0, []
        for i, p in enumerate(raw["passes"]):
            for op in p["ops"]:
                attempted += 1
                key = prefix + op["name"]
                if op["error"]:
                    failures.append("pass %d %s: %s" % (i, op["name"], op["error"]))
                elif known.setdefault(key, op["digest"]) != op["digest"]:
                    failures.append("pass %d %s: digest %s, expected %s"
                                    % (i, op["name"], op["digest"], known[key]))
        tmp = DIGESTS + ".%d" % os.getpid()
        with open(tmp, "w") as f:
            json.dump(store, f)
        os.replace(tmp, DIGESTS)
    return attempted, len(failures), failures


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def pick(metrics, spec_list, workload):
    out = {}
    for m in spec_list:
        if m["name"] not in metrics:
            raise BenchError("%s did not report %s" % (workload, m["name"]))
        out[m["name"]] = metrics[m["name"]]
    return out


def measure(workload, seed, seconds, trace, scale=None):
    """One benchmark run: returns (details, result)."""
    spec = load_spec()
    build()
    raw = run_binary(workload, seed, seconds, trace,
                     SCALE[workload] if scale is None else scale)
    source = source_digest()
    attempted, failed, failures = judge_ops(raw, source)
    for f in failures[:20]:
        log("failed op: " + f)
    if raw["unwrapped"]:
        log("not traced, update probe.cpp: " + ", ".join(raw["unwrapped"]))
    timed = [p for p in raw["passes"] if p["timed"]]
    metrics = {
        "setup_s": {"value": statistics.median(raw["setup_s"]), "unit": "s"},
        "wall_s": {"value": statistics.median(p["wall_s"] for p in timed), "unit": "s"},
        "cpu_s": {"value": statistics.median(p["cpu_s"] for p in timed), "unit": "s"},
        "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
        "ops_ok_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
    }
    metrics.update(raw["qor"])
    if trace:
        gated = pick(raw["layers"], spec["per_layer"], workload)
    else:
        gated = pick(metrics, spec["end_to_end"], workload)
    details = {
        "provenance": {
            "workload": workload, "seed": seed, "scale": raw["scale"],
            "nproc": nproc(), "pool_workers": raw["pool_workers"],
            "build_type": raw["build_type"], "compiler": raw["compiler"],
            "commit": git_commit(), "source_sha256": source,
            "input": raw["input"], "unwrapped": raw["unwrapped"],
        },
        "samples": {
            "setup_s": raw["setup_s"],
            "wall_s": [p["wall_s"] for p in raw["passes"]],
            "cpu_s": [p["cpu_s"] for p in raw["passes"]],
            "timed": [p["timed"] for p in raw["passes"]],
        },
        "metrics": metrics,
        "layers": raw.get("layers", {}),
        "failures": failures,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": gated}
    return details, result


# QoR each workload reports on the details line, with its unit
# (README.md, "Also reported").
_QOR_ALL = {"qor.drc_errors": "count", "qor.wns_ns": "ns",
            "qor.wirelength_m": "m", "qor.cut": "count"}
_QOR_FLOWS = dict(_QOR_ALL, **{"qor.ppc_geomean": "PPC", "qor.power_mw": "mW"})
QOR = {
    "paper_sweep": dict(_QOR_FLOWS, **{"qor.ppc_vs_3d12t": "ratio",
                                       "qor.ppc_vs_2d12t": "ratio"}),
    "explore": _QOR_FLOWS,
    "mesh_structural": _QOR_ALL,
}
TINY_SCALE = {"paper_sweep": 0.05, "explore": 0.05, "mesh_structural": 1.0}
# Per-layer metrics that must be nonzero in the selftest's traced runs:
# one per entry point of each layer the workload loads (README.md,
# "Workloads"). A zero means a wrapper no longer sees those calls.
LOADED = {
    "paper_sweep": ("core.flows_run", "core.freq_search_s", "exec.self_s",
                    "opt.calls", "sta.full_runs", "sta.retimes",
                    "route.full_routes", "route.incremental_updates",
                    "part.timing_partition_s", "part.eco_s", "power.s",
                    "gen.s", "tech.make_library_calls"),
    "explore": ("core.flows_run", "exec.self_s", "opt.calls", "sta.full_runs",
                "route.full_routes", "part.fm_s", "power.s", "gen.s",
                "tech.make_library_calls"),
    "mesh_structural": ("netlist.parse_s", "place.global_place_s",
                        "place.legalize_calls", "part.fm_s", "cts.build_s",
                        "cts.annotate_calls", "route.full_routes",
                        "sta.full_runs"),
}


def selftest():
    """Every workload at a tiny scale reports each of its metrics with the
    declared unit, passes every op, and has every traced entry point
    wrapped and every layer it loads called; stacking two cells on one
    spot raises the design-rule error count. A traced run with an
    unwrapped entry point fails outright."""
    spec = load_spec()
    problems = []
    for w in WORKLOADS:
        for trace in (False, True):
            details, result = measure(w, 7, 1, trace, TINY_SCALE[w])
            gated = spec["per_layer"] if trace else spec["end_to_end"]
            want = {m["name"]: m["unit"] for m in gated}
            got = dict(result["metrics"])
            if not trace:
                want.update(QOR[w])
                got.update(details["metrics"])
            for name, unit in want.items():
                m = got.get(name)
                if m is None:
                    problems.append("%s: missing %s" % (w, name))
                elif m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
                    problems.append("%s %s: %r, want unit %s" % (w, name, m, unit))
            if not result["correct"] or result["failed"]:
                problems.append("%s: %d of %d ops failed"
                                % (w, result["failed"], result["attempted"]))
            if not trace and details["metrics"]["ops_ok_frac"]["value"] != 1.0:
                problems.append("%s: ops_ok_frac below 1" % w)
            if details["provenance"]["unwrapped"]:
                problems.append("%s: not wrapped: %s"
                                % (w, ", ".join(details["provenance"]["unwrapped"])))
            if trace:
                for name in LOADED[w]:
                    if not got.get(name, {}).get("value"):
                        problems.append("%s: %s is 0" % (w, name))
    drc = drive(["drc-selftest"])
    if not drc["drc_errors_after"] > drc["drc_errors_before"]:
        problems.append("stacked cells did not raise qor.drc_errors: %r" % drc)
    for p in problems:
        log("selftest: " + p)
    print("selftest: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    try:
        if args.selftest:
            return selftest()
        if not args.workload:
            ap.error("--workload is required")
        seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
        details, result = measure(args.workload, args.seed, seconds,
                                  args.trace == 1)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(str(e))
        return 1
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
