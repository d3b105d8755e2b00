#!/usr/bin/env python3
"""Repository benchmark: build sfbench from source, run one workload, print
the result as the last stdout line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Run it from the root of a checkout.  The workloads and metrics are declared
in BENCHMARK.json; perfbench/README.md says why each was chosen.

--trace 0 prints the end-to-end metrics.  It runs PROCESSES sfbench
processes one after another, each with an empty kernel-cache directory
(the cache is process-wide, so a second set-up in one process would be
warm).  Each sets up cold and then times ops for 1/PROCESSES of
--seconds.  setup_s is the median of their set-ups; op_ms and op_tail_ms
come from their pooled op samples, so the timed ops are spread over the
whole run rather than one stretch of it.
--trace 1 prints the per-layer metrics of one traced sfbench process.

OMP_NUM_THREADS is 1 (README: on a shared 4-vCPU VM a gmg solve read
125-800 ms on 4 threads and 112-257 ms on 2 as hypervisor steal came and
went, 170-189 ms on 1).  The traced run times gmg on every core as a
layer metric.

Everything the run writes stays under .bench_build/ in the checkout: the
build tree, and a per-run work directory (kernel cache, compiler temporary
files) that is removed before exit.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
SFBENCH = os.path.join(BUILD_DIR, "sfbench")

PROCESSES = 3
# Per-process limits (seconds); the whole run must end within 180 s.
LOOP_TIMEOUT = 55
TRACE_TIMEOUT = 170


class BenchError(Exception):
    pass


def build():
    """Configure (once) and build sfbench; quiet unless it fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "support", "CMakeLists.txt")):
        raise BenchError("library sources (src/) not found next to perfbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "sfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                raise BenchError("build failed: " + " ".join(cmd))


def child_env(workdir):
    """Environment of one sfbench process: a fresh, empty kernel cache and
    compiler temp dir inside the checkout, one OpenMP thread, and none of
    the library's own tracing or persistent stores."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SNOWFLAKE_")}
    cache = os.path.join(workdir, "cache")
    tmp = os.path.join(workdir, "tmp")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(cache)
    os.makedirs(tmp)
    env["SNOWFLAKE_CACHE_DIR"] = cache
    env["TMPDIR"] = tmp
    env["OMP_NUM_THREADS"] = "1"
    return env


def run_sfbench(argv, workdir, timeout):
    """Run sfbench in its own process group and work directory; return
    (facts lines, result).  The process has ended on return."""
    proc = subprocess.Popen([SFBENCH] + argv, stdout=subprocess.PIPE,
                            env=child_env(workdir), cwd=ROOT,
                            preexec_fn=os.setsid, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("sfbench %s timed out after %d s" % (argv, timeout))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("sfbench %s exited with %d" % (argv, proc.returncode))
    return [l for l in lines[:-1] if l.startswith("# ")], json.loads(lines[-1])


def tail(samples):
    """The highest percentile with at least ten samples beyond it: sorted
    sample n-11 (0-based), with the percentile it stands for.  With fewer
    than 11 samples no such percentile exists: the maximum, at 100."""
    s = sorted(samples)
    if len(s) < 11:
        return s[-1], 100.0
    i = len(s) - 11
    return s[i], 100.0 * (i + 1) / len(s)


def declared(spec, kind):
    return {m["name"]: m["unit"] for m in spec[kind]}


def select(metrics, names_units):
    """The declared metrics, in declared order, with unit checks."""
    out = {}
    for name, unit in names_units.items():
        if name not in metrics:
            raise BenchError("sfbench did not report metric " + name)
        if metrics[name]["unit"] != unit:
            raise BenchError("metric %s has unit %s, declared %s"
                             % (name, metrics[name]["unit"], unit))
        out[name] = {"value": metrics[name]["value"], "unit": unit}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Harness self-test only (selftest.py): tiny sizes, and checks fed a
    # deliberately wrong expected answer.
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError("unknown workload " + args.workload)

    build()
    seconds = args.seconds / PROCESSES if args.trace == 0 else args.seconds
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(seconds), "--trace", str(args.trace)]
    if args.tiny:
        base.append("--tiny")
    if args.inject_fault:
        base.append("--inject-fault")
    workdir = os.path.join(BUILD_ROOT, "run-%d" % os.getpid())

    attempted = failed = 0
    if args.trace == 0:
        setups, ops, process_ms, facts = [], [], [], []
        for _ in range(PROCESSES):
            lines, r = run_sfbench(base, workdir, LOOP_TIMEOUT)
            setups.append(r["metrics"]["setup_s"]["value"])
            attempted += r["attempted"]
            failed += r["failed"]
            facts = []
            for line in lines:
                if line.startswith("# op_ms_samples"):
                    own = [float(v) for v in line.split()[2:]]
                    ops += own
                    if own:
                        process_ms.append(statistics.median(own))
                else:
                    facts.append(line)
        if not ops:
            raise BenchError("no op completed")
        tail_ms, tail_pct = tail(ops)
        m = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
             "op_ms": {"value": statistics.median(ops), "unit": "ms"},
             "op_tail_ms": {"value": tail_ms, "unit": "ms"},
             "op_tail_pct": {"value": tail_pct, "unit": "%"},
             "op_samples": {"value": len(ops), "unit": "count"},
             "ops_ok_ratio": {"value": (attempted - failed) / attempted,
                              "unit": "ratio"}}
        facts.append("# setup_s samples: " +
                     ", ".join("%.4f" % s for s in setups))
        facts.append("# op_ms median per process: " +
                     ", ".join("%.4f" % s for s in process_ms))
        metrics = select(m, declared(spec, "end_to_end"))
    else:
        facts, r = run_sfbench(base, workdir, TRACE_TIMEOUT)
        attempted, failed = r["attempted"], r["failed"]
        m = r["metrics"]
        metrics = select(m, declared(spec, "per_layer"))
    for name, v in sorted(m.items()):
        if name not in metrics:
            facts.append("# extra %s %r %s" % (name, v["value"], v["unit"]))

    for line in facts:
        print(line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # A TERM unwinds through run_sfbench, which kills and reaps its children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        sys.exit(2)
