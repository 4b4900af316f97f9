#!/usr/bin/env python3
"""Build and run the inlt benchmark (see perfbench/README.md).

From the repository root:

  python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --smoke

The first form builds the runner (CMake, Release, into .bench_build/ or
$CARGO_TARGET_DIR) and runs one workload; the runner's last stdout line
is the JSON result. Build output goes to stderr. --smoke is the
self-test: every metric is printed with its unit, fail_rate is 0 at
seed 1, and a deliberately wrong program makes fail_rate non-zero.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("search", "exec_small", "exec_large")
TIMEOUT_S = 175  # one run must end within 180 s


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build(base):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no inlt sources at src/ beside perfbench/: run from a full "
             "checkout of the repository")
    out = os.path.join(base, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", out, "--target", "inlt_perfbench",
                  "-j", "4"])
    for cmd in steps:
        # Build logs go to stderr: stdout must end with the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "inlt_perfbench")


def bench_cmd(binary, base, workload, seed, seconds, trace, extra=()):
    return [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--corpus", os.path.join(HERE, "corpus"),
            "--work", os.path.join(base, "perfbench-work")] + list(extra)


def bench_env(base):
    # The C compiler behind the native engine writes temporaries to
    # $TMPDIR; keep them inside the checkout.
    tmp = os.path.join(base, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    return env


def run_bench(cmd, env, stdout):
    """Run the runner in its own process group, so a timeout stops the
    set-up children and compiler processes it started as well."""
    p = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail("the runner did not finish within %d s" % TIMEOUT_S)
    return p.returncode if stdout is None else (p.returncode, out)


def run_capture(cmd, env):
    rc, out = run_bench(cmd, env, subprocess.PIPE)
    lines = out.splitlines()
    result = json.loads(lines[-1]) if rc == 0 and lines else None
    metrics = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "metric":
            metrics[parts[1]] = (float(parts[2]), parts[3])
    return rc, result, metrics


def smoke(binary, base):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    env = bench_env(base)
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            if trace == 0:
                want["fail_rate"] = "ratio"
            rc, result, metrics = run_capture(
                bench_cmd(binary, base, workload, 1, 1, trace), env)
            tag = "%s --trace %d" % (workload, trace)
            before = len(problems)
            if rc != 0 or result is None:
                problems.append("%s: exit %d, no result" % (tag, rc))
                continue
            for name, unit in want.items():
                if name not in metrics:
                    problems.append("%s: metric %s missing" % (tag, name))
                elif metrics[name][1] != unit:
                    problems.append("%s: %s has unit %s, not %s"
                                    % (tag, name, metrics[name][1], unit))
            if set(result["metrics"]) != set(want) - {"fail_rate"}:
                problems.append("%s: result metrics differ from "
                                "BENCHMARK.json" % tag)
            if result["failed"] != 0 or metrics.get("fail_rate", (0,))[0]:
                problems.append("%s: fail_rate is not 0" % tag)
            print("smoke: %s %s" % (tag, "ok" if len(problems) == before
                                       else "FAILED"), flush=True)
    # A wrong program must be caught: an illegal interchange forced
    # through codegen, run as an extra exec_small item.
    rc, result, metrics = run_capture(
        bench_cmd(binary, base, "exec_small", 1, 1, 0, ["--inject-wrong"]),
        env)
    rate = metrics.get("fail_rate", (0.0,))[0]
    if rc != 0 or result is None or result["failed"] == 0 or rate <= 0:
        problems.append("injected wrong program: fail_rate stayed 0")
    else:
        print("smoke: injected wrong program fail_rate=%g" % rate)
    for p in problems:
        print("smoke: FAIL " + p)
    print("smoke: " + ("ok" if not problems else "failed"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    base = build_root()
    if args.smoke:
        return smoke(build(base), base)
    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    binary = build(base)
    cmd = bench_cmd(binary, base, args.workload, args.seed, args.seconds,
                     args.trace)
    return run_bench(cmd, bench_env(base), None)


if __name__ == "__main__":
    sys.exit(main())
