#!/usr/bin/env python3
"""Self-test of the benchmark harness.  Run from the root of a checkout:

    python3 perfbench/selftest.py

Every workload runs at its tiny size (--tiny).  The test checks that
  1. each declared workload prints every end-to-end metric with its
     declared unit, all ops pass, and the traced run prints every
     per-layer metric with its unit;
  2. a check fed a deliberately wrong expected answer (--inject-fault) is
     counted as a failed op, and the benchmark still exits 0 with a result;
  3. the same seed gives the same inputs (iteration counts, program set,
     generated source size, halo bytes) and another seed changes the jit
     program set.
Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (after the bytecode switch: leave no __pycache__)

SEED = 7
failures = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def bench(workload, trace, *extra):
    """run.py at tiny size; returns (exit code, parsed last line or None)."""
    p = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"),
                        "--workload", workload, "--seed", str(SEED),
                        "--seconds", "1", "--trace", str(trace), "--tiny"]
                       + list(extra), cwd=run.ROOT, capture_output=True,
                       text=True)
    lines = p.stdout.strip().splitlines()
    try:
        return p.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(p.stderr[-3000:])
        return p.returncode, None


def has_all(result, declared):
    return result is not None and all(
        result["metrics"].get(n, {}).get("unit") == u for n, u in declared.items())


def facts(workload, seed):
    """The '# fact' lines of a tiny set-up-only sfbench process."""
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", "0", "--tiny", "--setup-only"]
    workdir = os.path.join(run.BUILD_ROOT, "selftest-%s-%d" % (workload, seed))
    lines, _ = run.run_sfbench(argv, workdir, run.LOOP_TIMEOUT)
    return {l.split()[2]: l.split()[3] for l in lines if l.startswith("# fact ")}


def fault_counted(workload):
    """A tiny set-up-only sfbench with a wrong expected answer: every
    warm-up op must count as failed, and the process must still finish."""
    argv = ["--workload", workload, "--seed", str(SEED), "--seconds", "1",
            "--trace", "0", "--tiny", "--setup-only", "--inject-fault"]
    workdir = os.path.join(run.BUILD_ROOT, "selftest-fault-" + workload)
    _, r = run.run_sfbench(argv, workdir, run.LOOP_TIMEOUT)
    return r["failed"] == r["attempted"] > 0


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = run.declared(spec, "end_to_end")
    layers = run.declared(spec, "per_layer")
    run.build()

    for w in [w["name"] for w in spec["workloads"]]:
        rc, r = bench(w, 0)
        expect(rc == 0 and has_all(r, e2e) and r["correct"] and r["failed"] == 0,
               "%s: end-to-end metrics printed with units, all ops pass" % w)
        rc, r = bench(w, 0, "--inject-fault")
        expect(rc == 0 and r is not None and not r["correct"]
               and r["failed"] == r["attempted"] > 0
               and r["metrics"]["ops_ok_ratio"]["value"] == 0.0,
               "%s: wrong expected answer counted as failed, no abort" % w)

    first = spec["workloads"][0]["name"]
    rc, r = bench(first, 1)
    expect(rc == 0 and has_all(r, layers) and r["correct"],
           "traced run prints every per-layer metric with its unit")

    # jit and distsim are measured only as layers; their checks and seeded
    # inputs are tested here directly.
    for w in ("jit", "distsim"):
        expect(fault_counted(w), "%s: wrong expected answer counted as failed" % w)
    for w in ("gmg", "krylov", "jit", "distsim"):
        a, b = facts(w, SEED), facts(w, SEED)
        expect(a == b and len(a) > 0, "%s: same seed, same facts %s" % (w, a))
    expect(facts("jit", SEED)["jit.program_set"]
           != facts("jit", SEED + 1)["jit.program_set"],
           "jit: another seed changes the program set")

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except run.BenchError as e:
        sys.stderr.write("selftest: %s\n" % e)
        sys.exit(2)
